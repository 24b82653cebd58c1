package cluster

import (
	"context"
	"net/http"
	"slices"
	"time"

	"tlssync/internal/store"
)

// Anti-entropy: replication pushes are asynchronous and bounded, so
// holes happen — a push dropped on a full queue, a replica that was
// down, a membership change that moved a chain. The sweeper repairs
// those holes within one sweep: every SweepEvery it
// exchanges key digests with each alive peer, pushes the artifacts a
// replica-chain member is missing, and pulls the holes in this
// node's own chains. Membership changes nudge the sweeper
// immediately, which is what makes a rebalance actually move data.

// maxRepairsPerPeer bounds work per (peer, sweep) so one giant
// rebalance cannot wedge a sweep; the remainder lands next sweep.
const maxRepairsPerPeer = 64

// sweepLoop runs the periodic digest exchange until Close.
func (c *Cluster) sweepLoop() {
	defer c.senderWG.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		case <-c.sweepTrig:
		}
		c.sweepOnce()
	}
}

// sweepOnce exchanges digests with every alive, addressable peer.
func (c *Cluster) sweepOnce() {
	if c.cfg.LocalKeys == nil {
		return
	}
	local := make(map[string]bool)
	for _, k := range c.cfg.LocalKeys() {
		local[k] = true
	}
	c.mu.Lock()
	ring := c.ring
	type target struct{ id, url string }
	var targets []target
	for _, p := range c.peers {
		if p.alive && p.url != "" {
			targets = append(targets, target{p.id, p.url})
		}
	}
	c.mu.Unlock()

	pushed, pulled, errs := int64(0), int64(0), int64(0)
	for _, t := range targets {
		peerKeys, err := c.fetchDigest(t.url)
		if err != nil {
			errs++
			continue
		}
		repairs := 0
		// Push: local artifacts the peer's replica-chain membership
		// entitles it to but it does not hold.
		for k := range local {
			if repairs >= maxRepairsPerPeer {
				break
			}
			if peerKeys[k] || !slices.Contains(ring.Successors(k, c.cfg.Replicas+1), t.id) {
				continue
			}
			data, ok := c.localGet(k)
			if !ok {
				continue
			}
			if err := c.pushArtifact(t.url, k, data); err != nil {
				errs++
				c.cfg.Logf("cluster: sweep push %s → %s: %v", k, t.id, err)
				continue
			}
			pushed++
			repairs++
		}
		// Pull: holes in this node's own chains that the peer can fill.
		if c.cfg.StoreLocal != nil {
			for k := range peerKeys {
				if repairs >= maxRepairsPerPeer {
					break
				}
				if local[k] || !slices.Contains(ring.Successors(k, c.cfg.Replicas+1), c.cfg.Self) {
					continue
				}
				data, err := c.pullArtifact(context.Background(), t.url, k)
				if err != nil {
					errs++
					continue
				}
				if err := c.cfg.StoreLocal(k, data); err != nil {
					errs++
					c.cfg.Logf("cluster: sweep pull %s ← %s: %v", k, t.id, err)
					continue
				}
				local[k] = true
				pulled++
				repairs++
			}
		}
	}
	c.mu.Lock()
	c.ctr.sweeps++
	c.ctr.repairPushed += pushed
	c.ctr.repairPulled += pulled
	c.ctr.sweepErrors += errs
	c.mu.Unlock()
	if pushed > 0 || pulled > 0 {
		c.cfg.Logf("cluster: anti-entropy sweep repaired %d push(es), %d pull(s)", pushed, pulled)
	}
}

func (c *Cluster) localGet(key string) ([]byte, bool) {
	if c.cfg.LocalGet == nil {
		return nil, false
	}
	return c.cfg.LocalGet(key)
}

// fetchDigest pulls one peer's key digest (GET /cluster/digest),
// dropping any key that is not a well-formed artifact key.
func (c *Cluster) fetchDigest(base string) (map[string]bool, error) {
	var ans struct {
		Keys []string `json:"keys"`
	}
	if err := c.peerCall(context.Background(), http.MethodGet, base+"/cluster/digest", nil, &ans); err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(ans.Keys))
	for _, k := range ans.Keys {
		if store.ValidKey(k) { // a peer's digest is untrusted input
			out[k] = true
		}
	}
	return out, nil
}
