package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlssync"
	"tlssync/internal/cluster"
	"tlssync/internal/journal"
	"tlssync/internal/store"
)

// This file is the daemon side of internal/cluster: epoch
// persistence, the /cluster/* endpoints, request routing (proxy to
// the key's acting owner or lease holder, never recompute), artifact
// replication, and dead-node job adoption. Exactly-once execution is
// the execution lease's job (lease.go and internal/cluster/lease.go).
// See docs/cluster.md for the protocol.

// peerHeader marks a /simulate request as forwarded by a peer. A
// forwarded request is never forwarded again: if the receiver does
// not consider itself responsible for the key, it sheds with 503 and
// the client's retry converges once ring views agree — a hard loop
// bound instead of a TTL.
const peerHeader = "X-Tlsd-Forwarded"

// decommissionDrain bounds how long POST /cluster/decommission waits
// for this node's journaled-pending backlog to drain before refusing
// with 409 — a decommission must never orphan begun work.
const decommissionDrain = 10 * time.Second

// clusterConfig is the parsed -node-id/-peers/... flag set.
type clusterConfig struct {
	nodeID      string
	nodes       []string          // boot membership, including self
	urls        map[string]string // static id → base URL from -peers
	selfURL     string            // advertised base URL (gossiped so late joiners find us)
	memberEpoch uint64            // member-set version a joiner boots with (0: seed boot)
	peersFile   string
	replicas    int
	heartbeat   time.Duration
	deadAfter   time.Duration
	sweep       time.Duration // anti-entropy period (0: off)
}

// parsePeers parses the -peers flag: comma-separated node ids, each
// optionally with a static address ("n0,n1=http://host:port,n2").
// Addresses are usually left to -peersfile, which also follows port
// changes across restarts.
func parsePeers(spec string) (nodes []string, urls map[string]string, err error) {
	urls = make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, has := strings.Cut(part, "=")
		if id == "" {
			return nil, nil, fmt.Errorf("empty node id in -peers %q", spec)
		}
		nodes = append(nodes, id)
		if has {
			if !strings.Contains(addr, "://") {
				addr = "http://" + addr
			}
			urls[id] = strings.TrimSuffix(addr, "/")
		}
	}
	return nodes, urls, nil
}

// bumpEpoch persists and returns this node's boot incarnation: a
// counter under the cache dir, incremented on every start. The epoch
// is the execution lease's fencing token: it distinguishes "the n1
// that died holding a lease" from "the n1 serving now", so a record
// from the older incarnation never renews or releases a newer one.
func bumpEpoch(fsys store.FS, cacheDir string) (uint64, error) {
	dir := filepath.Join(cacheDir, "cluster")
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "epoch")
	var epoch uint64
	if data, err := store.ReadFile(fsys, path); err == nil {
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); perr == nil {
			epoch = v
		}
	}
	epoch++
	if err := store.WriteFileAtomic(fsys, path, []byte(strconv.FormatUint(epoch, 10)+"\n"), 0o777); err != nil {
		return 0, err
	}
	return epoch, nil
}

// clusterState is the server's cluster-mode bookkeeping beyond the
// cluster.Cluster itself.
type clusterState struct {
	mu         sync.Mutex
	executions map[string]int64 // akey → completed simulate executions on THIS node
	lapses     map[string]int64 // akey → results discarded because the lease lapsed
	leaving    atomic.Bool      // decommission accepted; gossiped as "leaving"
}

// noteExecution counts one simulate execution of an artifact key where
// the artifact is stored, inside the engine job: coalesced waiters
// share one, and a job killed mid-run or whose lease lapsed counts
// nothing (noteLapse counts the latter apart). Summed across the
// fleet, it is what max_key_executions judges.
func (s *server) noteExecution(akey string) {
	if s.cluster == nil {
		return
	}
	s.cstate.mu.Lock()
	s.cstate.executions[akey]++
	s.cstate.mu.Unlock()
}

// noteLapse counts one result discarded because its lease lapsed.
func (s *server) noteLapse(akey string) {
	if s.cluster == nil {
		return
	}
	s.cstate.mu.Lock()
	s.cstate.lapses[akey]++
	s.cstate.mu.Unlock()
}

func (s *server) executionsSnapshot() map[string]int64 {
	s.cstate.mu.Lock()
	defer s.cstate.mu.Unlock()
	return maps.Clone(s.cstate.executions)
}

func (s *server) lapsesSnapshot() map[string]int64 {
	s.cstate.mu.Lock()
	defer s.cstate.mu.Unlock()
	return maps.Clone(s.cstate.lapses)
}

// fireCluster triggers a cluster fault point ("cluster.in" for
// inbound peer traffic, "cluster.out" for outbound); nil without the
// fault surface.
func (s *server) fireCluster(point string) error {
	if s.cfg.faults == nil {
		return nil
	}
	return s.cfg.faults.Fire(point)
}

// clusterPending maps the journal's live pending set to gossip jobs:
// what a successor needs to finish this node's work if it dies now.
// The artifact key is computable from the workload alone — no
// compile needed — which is what makes adoption cheap to route.
func (s *server) clusterPending() []cluster.Job {
	if s.journal == nil {
		return nil
	}
	var out []cluster.Job
	for _, p := range s.journal.Pending() {
		rec := p.Record
		w, ok := s.workload(rec.Bench)
		if rec.Kind != "simulate" || !ok || !isPolicy(rec.Label) {
			continue
		}
		out = append(out, cluster.Job{
			Key:   rec.Key,
			AKey:  tlssync.WorkloadArtifactKey("simulate", w, rec.Label),
			Bench: rec.Bench,
			Label: rec.Label,
		})
		if len(out) >= 512 { // bound the heartbeat payload
			break
		}
	}
	return out
}

// clusterLocalStatus is the readiness string gossiped in heartbeats.
func (s *server) clusterLocalStatus() string {
	if s.cstate.leaving.Load() {
		return "leaving"
	}
	if s.gate.Stats().Draining {
		return "draining"
	}
	return "ok"
}

// --- adoption (successor side) ---

// adoptJob is the cluster's Adopt callback: a peer died and this
// node is the acting owner of one of its journaled-pending jobs. The
// job is journaled here as this node's own Begin — so if the adopter
// dies too, its own journal replay finishes the job — and then runs
// through the path every recovered job takes (completeJob):
// the execution lease decides whether it executes here or its
// artifact already exists somewhere.
func (s *server) adoptJob(job cluster.Job, from string, epoch uint64) {
	if _, ok := s.workload(job.Bench); !ok || !isPolicy(job.Label) {
		s.cfg.logf("tlsd: cluster: cannot adopt %s from %s: bench %q / policy %q not servable here",
			job.Key, from, job.Bench, job.Label)
		return
	}
	rec := journal.Record{Key: job.Key, Kind: "simulate", Bench: job.Bench, Label: job.Label}
	go func() {
		s.journalBegin(rec)
		if err := s.completeJob(rec); err != nil && !errors.Is(err, cluster.ErrLanded) {
			s.cfg.logf("tlsd: cluster: adoption of %s from %s@%d failed: %v", job.Key, from, epoch, err)
			return
		}
		s.cluster.MarkAdoptionDone(job.Key)
		s.cfg.logf("tlsd: cluster: adopted %s (bench %s, policy %s) from dead %s@%d", job.Key, job.Bench, job.Label, from, epoch)
	}()
}

// --- routing (request path) ---

// shedCluster answers 503 + Retry-After 1: "a retry will land
// somewhere that can serve this" — cluster topology is converging
// (no quorum, views disagree, owner unreachable), not failing.
func (s *server) shedCluster(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg})
}

// routeSimulate decides where a cold /simulate for akey runs.
// Returns true when it wrote the response (proxied or shed); false
// means "compute locally" and the caller proceeds down the normal
// admission → prepare → simulate path, where the execution lease has
// the final word.
func (s *server) routeSimulate(w http.ResponseWriter, r *http.Request, akey string) bool {
	if r.Header.Get(peerHeader) != "" {
		// Forwarded by a peer. Serve locally iff this node considers
		// itself responsible (it holds the key's lease, or is the acting
		// owner); otherwise shed — forwarded requests are never
		// re-forwarded, so disagreeing ring views cannot loop.
		if err := s.fireCluster("cluster.in"); err != nil {
			s.shedCluster(w, "cluster fault injected")
			return true
		}
		if s.cluster.HoldsLease(akey) {
			return false // join the running execution on the engine
		}
		owner, ok := s.cluster.Route(akey)
		if ok && owner == s.cluster.Self() {
			return false
		}
		s.shedCluster(w, "not the acting owner of this key (ring views converging)")
		return true
	}

	owner, ok := s.cluster.Route(akey)
	if !ok {
		// Fail closed on a minority side: the majority is still serving
		// this key; running it here too would double-compute.
		s.shedCluster(w, "no cluster quorum")
		return true
	}
	// A live lease in this node's own table names where the key is
	// executing right now: join that execution by proxy. Answers the
	// retry of a request that deferred to the holder, with no probe.
	if holder, held := s.cluster.LeaseHolder(akey); held && s.proxySimulate(w, r, holder, akey) {
		return true
	}
	if owner != s.cluster.Self() {
		if s.proxySimulate(w, r, owner, akey) {
			return true
		}
		s.shedCluster(w, "key owner "+owner+" unreachable")
		return true
	}
	// This node is the acting owner: compute locally. If the artifact
	// already exists elsewhere, the lease read finds it at a member of
	// the read majority and pulls it instead (cluster.ErrLanded).
	return false
}

// proxySimulate forwards the request to target and relays the
// answer. Returns false only when no response was obtained (caller
// sheds); relayed non-200s (429 backpressure, 503 drain/shed, 502
// breaker) return true — the owner's answer IS the answer, and the
// client's retry policy reads the relayed Retry-After.
func (s *server) proxySimulate(w http.ResponseWriter, r *http.Request, target, akey string) bool {
	base := s.cluster.PeerURL(target)
	if base == "" {
		return false
	}
	if err := s.fireCluster("cluster.out"); err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), "GET", base+"/simulate?"+r.URL.RawQuery, nil)
	if err != nil {
		return false
	}
	req.Header.Set(peerHeader, s.cluster.Self())
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return false
	}
	if resp.StatusCode != http.StatusOK {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return true
	}
	// Cache the artifact locally so the next request for this key is a
	// warm hit here. The served body is indented JSON; the store holds
	// canonical compact bytes, so compact before Put (content
	// addressing makes any byte-identical copy interchangeable).
	var payload struct {
		Result json.RawMessage `json:"result"`
	}
	if json.Unmarshal(body, &payload) == nil && len(payload.Result) > 0 {
		var buf bytes.Buffer
		if json.Compact(&buf, payload.Result) == nil {
			s.store.Put(akey, buf.Bytes())
		}
	}
	w.Header().Set("X-Tlsd-Cache", "peer")
	s.writeJSON(w, http.StatusOK, map[string]any{"cache": "peer", "result": payload.Result})
	return true
}

// --- /cluster endpoints ---

// handleCluster is the operator view: membership, ring parameters,
// quorum, per-peer liveness, adoptions, and this node's per-key
// execution counters (the evidence the chaos scenarios aggregate to
// prove zero lost and zero double-executed jobs), with the results
// discarded on a lapsed lease counted apart.
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var pending int
	if s.journal != nil {
		pending = len(s.journal.Pending())
	}
	keys := s.store.Keys()
	sort.Strings(keys)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"cluster":         s.cluster.StatusNow(),
		"executions":      s.executionsSnapshot(),
		"lease_lapses":    s.lapsesSnapshot(),
		"journal_pending": pending,
		"store_keys":      keys,
	})
}

// peerOnly wraps a peer-protocol handler with the inbound cluster
// fault point.
func (s *server) peerOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.fireCluster("cluster.in"); err != nil {
			s.shedCluster(w, "cluster fault injected")
			return
		}
		h(w, r)
	}
}

// handleClusterArtifact serves (GET) and accepts (POST) raw artifact
// bytes for replication. Artifacts are immutable and content-
// addressed, so a POST of a key that already exists is a no-op and
// there is nothing to version or reconcile.
func (s *server) handleClusterArtifact(w http.ResponseWriter, r *http.Request) {
	// The key reaches the store's disk layer as a file name: only the
	// shape store.Key produces may pass.
	key := r.URL.Query().Get("key")
	if !store.ValidKey(key) {
		s.writeError(w, errBadRequest("key must be an artifact key (64 lowercase hex digits)"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := s.store.Get(key)
		if !ok {
			s.writeError(w, errNotFound("artifact %q not on this node", key))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case http.MethodPost:
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil || !json.Valid(data) {
			s.writeError(w, errBadRequest("replica push body is not valid JSON"))
			return
		}
		s.store.Put(key, data)
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
	}
}

// handleClusterJoin admits a new member: the joiner POSTs its id and
// advertised URL, this node bumps the member epoch, and the answer is
// the authoritative new view the joiner boots from. The rest of the
// fleet learns the view by broadcast (backgrounded here) with
// heartbeat gossip as the safety net.
func (s *server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Node string `json:"node"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Node == "" {
		s.writeError(w, errBadRequest("join body must be {\"node\": id, \"url\": base-url}"))
		return
	}
	view, err := s.cluster.ApplyJoin(req.Node, req.URL)
	if err != nil {
		s.writeError(w, errBadRequest("%v", err))
		return
	}
	s.cfg.logf("tlsd: cluster: %s joined (member epoch %d, %d members)", req.Node, view.MemberEpoch, len(view.Members))
	go s.cluster.BroadcastView(view)
	s.writeJSON(w, http.StatusOK, view)
}

// handleClusterMembers folds a broadcast member-set view (from a join
// coordinator or a decommissioning node) into local state.
func (s *server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	var v cluster.MemberView
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&v); err != nil {
		s.writeError(w, errBadRequest("member view body is not valid JSON"))
		return
	}
	applied := s.cluster.ApplyMembers(v.MemberEpoch, v.Members, v.URLs)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"applied":      applied,
		"member_epoch": s.cluster.MemberEpoch(),
	})
}

// handleClusterDecommission removes THIS node from the cluster: drain
// the journaled-pending backlog (409 if it will not drain — a
// decommission must never orphan begun work), hand every local
// artifact to the replica chains of the post-departure ring, remove
// self from the member set, and broadcast the new view. The process
// keeps serving (warm hits locally, cold work proxied to the new
// owners) until the supervisor stops it.
func (s *server) handleClusterDecommission(w http.ResponseWriter, r *http.Request) {
	if !s.cstate.leaving.CompareAndSwap(false, true) {
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "already leaving"})
		return
	}
	deadline := time.Now().Add(decommissionDrain)
	for len(s.clusterPending()) > 0 && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			s.cstate.leaving.Store(false)
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	if n := len(s.clusterPending()); n > 0 {
		s.cstate.leaving.Store(false)
		s.writeJSON(w, http.StatusConflict, map[string]any{
			"error":   fmt.Sprintf("%d journaled job(s) still pending after %v; not decommissioning", n, decommissionDrain),
			"pending": n,
		})
		return
	}
	pushed, failed := s.cluster.DecommissionHandoff()
	view, err := s.cluster.Leave()
	if err != nil {
		s.cstate.leaving.Store(false)
		s.writeError(w, errBadRequest("%v", err))
		return
	}
	acked := s.cluster.BroadcastView(view)
	s.cfg.logf("tlsd: cluster: decommissioned self (member epoch %d, handoff %d pushed / %d failed, view acked by %d peer(s))",
		view.MemberEpoch, pushed, failed, acked)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":          "decommissioned",
		"member_epoch":    view.MemberEpoch,
		"members":         view.Members,
		"handoff_pushed":  pushed,
		"handoff_failed":  failed,
		"broadcast_acked": acked,
	})
}

// handleClusterDigest answers the anti-entropy key digest: every
// artifact key this node holds, sorted.
func (s *server) handleClusterDigest(w http.ResponseWriter, r *http.Request) {
	keys := s.store.Keys()
	sort.Strings(keys)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"node": s.cluster.Self(),
		"keys": keys,
	})
}

// registerClusterHandlers mounts the /cluster surface on the mux.
func (s *server) registerClusterHandlers() {
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	s.mux.HandleFunc("GET /cluster/heartbeat", s.peerOnly(s.cluster.ServeHeartbeat))
	s.mux.HandleFunc("POST /cluster/heartbeat", s.peerOnly(s.cluster.ServeHeartbeat))
	for _, m := range []string{"GET", "POST", "DELETE"} {
		s.mux.HandleFunc(m+" /cluster/lease", s.peerOnly(s.cluster.ServeLease))
	}
	s.mux.HandleFunc("GET /cluster/artifact", s.peerOnly(s.handleClusterArtifact))
	s.mux.HandleFunc("POST /cluster/artifact", s.peerOnly(s.handleClusterArtifact))
	s.mux.HandleFunc("POST /cluster/join", s.peerOnly(s.handleClusterJoin))
	s.mux.HandleFunc("POST /cluster/members", s.peerOnly(s.handleClusterMembers))
	s.mux.HandleFunc("POST /cluster/decommission", s.peerOnly(s.handleClusterDecommission))
	s.mux.HandleFunc("GET /cluster/digest", s.peerOnly(s.handleClusterDigest))
}

// newCluster builds the cluster layer for a server from the parsed
// flags. Called from newServer before journal recovery (recovered
// jobs take execution leases) and before the mux is finalized.
func (s *server) newCluster(cc *clusterConfig) error {
	epoch := uint64(1)
	if s.cfg.cacheDir != "" {
		var err error
		if epoch, err = bumpEpoch(s.fs(), s.cfg.cacheDir); err != nil {
			return fmt.Errorf("cluster epoch: %w", err)
		}
	} else {
		s.cfg.logf("tlsd: cluster: memory-only (no -cachedir): boot epochs and job adoption need a journal")
	}
	var fire func(string) error
	if s.cfg.faults != nil {
		reg := s.cfg.faults
		fire = func(point string) error { return reg.Fire(point) }
	}
	membersFile := ""
	if s.cfg.cacheDir != "" {
		membersFile = filepath.Join(s.cfg.cacheDir, "cluster", "members")
	}
	cl, err := cluster.New(cluster.Config{
		Self:           cc.nodeID,
		Nodes:          cc.nodes,
		URLs:           cc.urls,
		SelfURL:        cc.selfURL,
		MemberEpoch:    cc.memberEpoch,
		MembersFile:    membersFile,
		PeersFile:      cc.peersFile,
		Replicas:       cc.replicas,
		Epoch:          epoch,
		FS:             s.fs(),
		HeartbeatEvery: cc.heartbeat,
		DeadAfter:      cc.deadAfter,
		SweepEvery:     cc.sweep,
		Logf:           s.cfg.logf,
		Fire:           fire,
		LocalPending:   s.clusterPending,
		LocalStatus:    s.clusterLocalStatus,
		Adopt:          s.adoptJob,
		LocalKeys:      s.store.Keys,
		LocalGet:       s.store.Get,
		StoreLocal: func(key string, data []byte) error {
			if !store.ValidKey(key) || !json.Valid(data) {
				return fmt.Errorf("artifact %q from a peer is not a valid key/JSON pair", key)
			}
			s.store.Put(key, data)
			return nil
		},
	})
	if err != nil {
		return err
	}
	s.cluster = cl
	s.cstate = &clusterState{
		executions: make(map[string]int64),
		lapses:     make(map[string]int64),
	}
	// The proxy client carries whole simulations; the request context
	// (per-request deadline) bounds it, not a transport timeout.
	s.proxyClient = &http.Client{}
	return nil
}
