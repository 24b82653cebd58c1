package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"time"
)

// ReplicaSet returns the peers (never self) that should hold a copy
// of akey: the first Replicas ring successors after the owner chain
// position of this node's copy. The owner itself is included when it
// is not self — replication is called by whichever node computed the
// artifact, which during failover may be a successor pushing back
// toward the (future, rebooted) owner's replicas.
func (c *Cluster) ReplicaSet(akey string) []string {
	c.mu.Lock()
	chain := c.ring.Successors(akey, c.cfg.Replicas+1)
	c.mu.Unlock()
	out := make([]string, 0, len(chain))
	for _, id := range chain {
		if id != c.cfg.Self {
			out = append(out, id)
		}
	}
	return out
}

// ReplicateAsync queues a committed artifact for push to the key's
// replica set, minus the peers in have (those that already took it as
// a lease commit). The queue is bounded: when it is full the push is
// dropped and accounted (replication_dropped), never blocking the
// commit path — and the anti-entropy sweeper repairs the hole within
// one sweep. Push targets are resolved at send time, so a push queued
// mid-rebalance lands on the live chain.
func (c *Cluster) ReplicateAsync(akey string, data []byte, have ...string) {
	body := append([]byte(nil), data...) // detach from the caller's buffer
	select {
	case c.sendQ <- repTask{akey: akey, data: body, have: have}:
		c.mu.Lock()
		c.ctr.repQueued++
		c.mu.Unlock()
	default:
		c.mu.Lock()
		c.ctr.repDropped++
		n := c.ctr.repDropped
		c.mu.Unlock()
		if n == 1 || n%100 == 0 {
			c.cfg.Logf("cluster: replication queue full — %d push(es) dropped (anti-entropy will repair)", n)
		}
	}
}

// senderLoop is one bounded replication worker: it drains the queue,
// pushes each artifact to its current replica set, and retries a
// failed push once after a short backoff (a restarting peer usually
// answers the second attempt). Terminal failures are accounted and
// left to the sweeper.
func (c *Cluster) senderLoop() {
	defer c.senderWG.Done()
	for {
		select {
		case <-c.stop:
			return
		case t := <-c.sendQ:
			for _, id := range c.ReplicaSet(t.akey) {
				u := c.PeerURL(id)
				if u == "" || slices.Contains(t.have, id) {
					continue
				}
				err := c.pushArtifact(u, t.akey, t.data)
				if err != nil {
					select {
					case <-c.stop:
						return
					case <-time.After(100 * time.Millisecond):
					}
					if u = c.PeerURL(id); u != "" {
						err = c.pushArtifact(u, t.akey, t.data)
					}
				}
				c.mu.Lock()
				if err != nil {
					c.ctr.repFailed++
				} else {
					c.ctr.repPushed++
				}
				c.mu.Unlock()
				if err != nil {
					c.cfg.Logf("cluster: replicate %s → %s: %v", t.akey, id, err)
				}
			}
		}
	}
}

func (c *Cluster) pushArtifact(base, akey string, data []byte) error {
	return c.peerCall(context.Background(), http.MethodPost, base+"/cluster/artifact?key="+url.QueryEscape(akey), data, nil)
}

func (c *Cluster) pullArtifact(ctx context.Context, base, akey string) ([]byte, error) {
	var data []byte
	err := c.peerCall(ctx, http.MethodGet, base+"/cluster/artifact?key="+url.QueryEscape(akey), nil, &data)
	return data, err
}

// peerCall issues one peer request through the outbound fault seam
// (the point partition and slow_peer scenarios arm). A non-200 answer
// is an error; out, when non-nil, receives the answer body — raw into
// a *[]byte, decoded JSON otherwise.
func (c *Cluster) peerCall(ctx context.Context, method, u string, body []byte, out any) error {
	if err := c.fire(); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s %s: status %d", method, u, resp.StatusCode)
	}
	switch out := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *[]byte:
		*out, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	default:
		err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(out)
	}
	return err
}

// DecommissionHandoff pushes every local artifact to the replica
// chain it will belong to once this node has left the ring: the
// departure ring is the member set minus self. Called by the
// decommission handler after the journal backlog drains and before
// Leave — so by the time the survivors learn the new member set, the
// data is already where the new ring says it lives. Best-effort per
// key (failures counted; anti-entropy on the survivors repairs the
// rest), synchronous on purpose: the process exits right after.
func (c *Cluster) DecommissionHandoff() (pushed, failed int) {
	if c.cfg.LocalKeys == nil {
		return 0, 0
	}
	c.mu.Lock()
	var rest []string
	for _, m := range c.members {
		if m != c.cfg.Self {
			rest = append(rest, m)
		}
	}
	c.mu.Unlock()
	if len(rest) == 0 {
		return 0, 0
	}
	departed := NewRing(rest, c.cfg.VNodes)
	for _, k := range c.cfg.LocalKeys() {
		data, ok := c.localGet(k)
		if !ok {
			continue
		}
		for _, id := range departed.Successors(k, c.cfg.Replicas+1) {
			u := c.PeerURL(id)
			if u == "" {
				failed++
				continue
			}
			if err := c.pushArtifact(u, k, data); err != nil {
				failed++
				c.cfg.Logf("cluster: handoff %s → %s: %v", k, id, err)
				continue
			}
			pushed++
		}
	}
	return pushed, failed
}

// BroadcastView POSTs a member-set view to every known peer and
// reports how many acknowledged. Gossip would spread the view anyway
// within a probe period; the decommission path broadcasts actively
// because the sender is about to exit and cannot rely on answering
// further probes.
func (c *Cluster) BroadcastView(v MemberView) int {
	c.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, p := range c.peers {
		if p.url != "" {
			targets = append(targets, target{p.id, p.url})
		}
	}
	c.mu.Unlock()
	body, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	acked := 0
	for _, t := range targets {
		if err := c.peerCall(context.Background(), http.MethodPost, t.url+"/cluster/members", body, nil); err != nil {
			c.cfg.Logf("cluster: member broadcast → %s: %v", t.id, err)
			continue
		}
		acked++
	}
	return acked
}

// PeerStatus is one row of the /cluster status answer.
type PeerStatus struct {
	ID     string `json:"id"`
	URL    string `json:"url,omitempty"`
	Alive  bool   `json:"alive"`
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch,omitempty"`
	// AgoMS is milliseconds since the last successful heartbeat
	// (-1: never heard from).
	AgoMS   int64 `json:"last_heartbeat_ms,omitempty"`
	Pending int   `json:"pending,omitempty"`
}

// Status is the cluster section of the daemon's observability
// answers (/cluster, /readyz, /stats).
type Status struct {
	Self        string           `json:"self"`
	Epoch       uint64           `json:"epoch"`
	MemberEpoch uint64           `json:"member_epoch"`
	Nodes       []string         `json:"nodes"`
	VNodes      int              `json:"vnodes"`
	Replicas    int              `json:"replicas"`
	Quorum      bool             `json:"quorum"`
	Alive       int              `json:"alive"`
	Peers       []PeerStatus     `json:"peers"`
	Adoptions   []Adoption       `json:"adoptions,omitempty"`
	Rebalances  int64            `json:"rebalances"`
	Replication map[string]int64 `json:"replication"`
	AntiEntropy map[string]int64 `json:"anti_entropy"`
}

// StatusNow snapshots the cluster view.
func (c *Cluster) StatusNow() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Self:        c.cfg.Self,
		Epoch:       c.cfg.Epoch,
		MemberEpoch: c.memberEpoch,
		Nodes:       c.ring.Nodes(),
		VNodes:      c.ring.vnodes,
		Replicas:    c.cfg.Replicas,
		Quorum:      c.quorumLocked(),
		Rebalances:  c.ctr.rebalances,
		Replication: map[string]int64{
			"pushed":  c.ctr.repPushed,
			"failed":  c.ctr.repFailed,
			"queued":  c.ctr.repQueued,
			"dropped": c.ctr.repDropped,
		},
		AntiEntropy: map[string]int64{
			"sweeps":        c.ctr.sweeps,
			"repair_pushed": c.ctr.repairPushed,
			"repair_pulled": c.ctr.repairPulled,
			"errors":        c.ctr.sweepErrors,
		},
	}
	st.Alive = c.aliveCountLocked()
	for _, p := range c.peers {
		status := p.status
		if p.suspect {
			status = "suspect"
		}
		ps := PeerStatus{ID: p.id, URL: p.url, Alive: p.alive, Status: status, Epoch: p.epoch, Pending: len(p.pending)}
		if p.everSeen {
			ps.AgoMS = c.now().Sub(p.lastOK).Milliseconds()
		} else {
			ps.AgoMS = -1
		}
		st.Peers = append(st.Peers, ps)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	st.Adoptions = append(st.Adoptions, c.adoptions...)
	return st
}
