package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tlssync"
	"tlssync/internal/fault"
	"tlssync/internal/journal"
	"tlssync/internal/store"
)

// The cluster integration tests run real multi-node fleets in one
// process: each node is a full *server (own store, journal, engine,
// detector) listening on an httptest server, wired to its peers by
// URL. Fast detector settings keep the kill→adopt→reboot cycle under
// a second of protocol time; the simulations themselves use synth
// workloads so each cold key costs one quick compile.

const (
	testHeartbeat = 25 * time.Millisecond
	testDeadAfter = 150 * time.Millisecond
)

// fleet is an in-process cluster of tlsd nodes.
type fleet struct {
	t    *testing.T
	ids  []string
	dirs []string
	srvs []*server
	ts   []*httptest.Server
}

// fleetNode builds (or reboots) one member. urls seeds static peer
// addresses — used on reboot so recovery has peers to reach before the
// detector's first round completes. opts adjust the config (faults).
func fleetNode(t *testing.T, id string, nodes []string, urls map[string]string, dir string, benches []string, opts ...func(*config)) *server {
	t.Helper()
	cfg := config{
		workers:    1,
		storeCap:   64,
		cacheDir:   dir,
		benchmarks: benches,
		logf:       t.Logf,
		cluster: &clusterConfig{
			nodeID:    id,
			nodes:     nodes,
			urls:      urls,
			replicas:  1,
			heartbeat: testHeartbeat,
			deadAfter: testDeadAfter,
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// withFaults gives a node a fault registry: the cluster.in/cluster.out
// points and, through the job wrap, jobs.simulate.
func withFaults(reg *fault.Registry) func(*config) {
	return func(c *config) {
		c.faults = reg
		c.jobWrap = fault.WrapJobs(reg)
	}
}

// newFleet starts n nodes (n0..n<n-1>), cross-wires their URLs, and
// waits for full mutual liveness. disk=true gives each node a
// journal-backed cache dir (required for adoption/fencing tests).
func newFleet(t *testing.T, n int, disk bool, benches ...string) *fleet {
	t.Helper()
	return newFleetWith(t, n, disk, nil, benches...)
}

// newFleetWith is newFleet with per-node config options (opts[i], when
// present, applies to node i).
func newFleetWith(t *testing.T, n int, disk bool, opts []func(*config), benches ...string) *fleet {
	t.Helper()
	f := &fleet{t: t}
	for i := 0; i < n; i++ {
		f.ids = append(f.ids, fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		dir := ""
		if disk {
			dir = filepath.Join(t.TempDir(), "cache")
		}
		f.dirs = append(f.dirs, dir)
		var o []func(*config)
		if i < len(opts) && opts[i] != nil {
			o = append(o, opts[i])
		}
		s := fleetNode(t, f.ids[i], f.ids, nil, dir, benches, o...)
		f.srvs = append(f.srvs, s)
		f.ts = append(f.ts, httptest.NewServer(s))
	}
	t.Cleanup(func() {
		for i := range f.srvs {
			if f.ts[i] != nil {
				f.ts[i].Close()
			}
			if f.srvs[i] != nil {
				f.srvs[i].Close()
			}
		}
	})
	for i, s := range f.srvs {
		for j := range f.srvs {
			if i != j {
				s.cluster.SetPeerURL(f.ids[j], f.ts[j].URL)
			}
		}
	}
	for _, s := range f.srvs {
		s := s
		waitCluster(t, "fleet mutual liveness", func() bool {
			return len(s.cluster.AliveIDs()) == n
		})
	}
	return f
}

// kill SIGKILL-equivalently removes node i: the listener closes (peers
// see connection refused, exactly like a dead process) and the server
// shuts down, leaving its journal and epoch file on disk.
func (f *fleet) kill(i int) {
	f.ts[i].Close()
	f.srvs[i].Close()
	f.ts[i], f.srvs[i] = nil, nil
}

// reboot restarts node i over its surviving cache dir, seeding the
// current URLs of the live peers (as tlssim's peers file would).
func (f *fleet) reboot(i int, benches []string) {
	urls := map[string]string{}
	for j := range f.srvs {
		if j != i && f.ts[j] != nil {
			urls[f.ids[j]] = f.ts[j].URL
		}
	}
	f.srvs[i] = fleetNode(f.t, f.ids[i], f.ids, urls, f.dirs[i], benches)
	f.ts[i] = httptest.NewServer(f.srvs[i])
}

// pickOwned finds a (bench, policy) pair whose artifact key the ring
// places on the wanted owner.
func pickOwned(t *testing.T, s *server, owner string, benches []string) (bench, policy, akey string) {
	t.Helper()
	for _, b := range benches {
		w, ok := s.workload(b)
		if !ok {
			t.Fatalf("bench %q not in serving set", b)
		}
		for _, p := range policyLabels {
			k := tlssync.WorkloadArtifactKey("simulate", w, p)
			if s.cluster.Ring().Owner(k) == owner {
				return b, p, k
			}
		}
	}
	t.Fatalf("no key owned by %s across %v", owner, benches)
	return "", "", ""
}

// waitCluster is waitFor with a longer deadline: cluster transitions
// may sit behind a synth-benchmark compile.
func waitCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// jsonContains reports whether a raw JSON string array holds want
// (an already-quoted element).
func jsonContains(raw json.RawMessage, want string) bool {
	var items []json.RawMessage
	if json.Unmarshal(raw, &items) != nil {
		return false
	}
	for _, it := range items {
		if string(it) == want {
			return true
		}
	}
	return false
}

// totalExecutions sums one key's execution counters across the live
// fleet — the scenario-level "zero double-computed" evidence.
func (f *fleet) totalExecutions(akey string) int64 {
	var n int64
	for _, s := range f.srvs {
		if s != nil {
			n += s.executionsSnapshot()[akey]
		}
	}
	return n
}

func TestParsePeers(t *testing.T) {
	nodes, urls, err := parsePeers("n0,n1=http://h:1,n2=h2:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"n0", "n1", "n2"}; fmt.Sprint(nodes) != fmt.Sprint(want) {
		t.Fatalf("nodes = %v, want %v", nodes, want)
	}
	if urls["n1"] != "http://h:1" || urls["n2"] != "http://h2:2" {
		t.Fatalf("urls = %v", urls)
	}
	if _, _, err := parsePeers("=http://h:1"); err == nil {
		t.Fatal("empty id accepted")
	}
}

// TestBumpEpochSurvivesCrashRename: the epoch file is written with
// the durable-rename protocol, so a machine crash around its rename
// keeps the new value — an empty epoch file would restart the boot
// epoch (the lease's fencing token) at 1.
func TestBumpEpochSurvivesCrashRename(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	fsys := &fault.FS{R: reg}
	for want := uint64(1); want <= 2; want++ {
		if got, err := bumpEpoch(fsys, dir); err != nil || got != want {
			t.Fatalf("epoch = %d, %v; want %d", got, err, want)
		}
	}
	reg.Arm("fs.rename", fault.Fault{Crash: true, Times: 1})
	if got, err := bumpEpoch(fsys, dir); err != nil || got != 3 {
		t.Fatalf("epoch across the crash = %d, %v; want 3", got, err)
	}
	if got, err := bumpEpoch(fsys, dir); err != nil || got != 4 {
		t.Fatalf("epoch after the crash = %d, %v; want 4", got, err)
	}
}

func TestBumpEpoch(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		got, err := bumpEpoch(store.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
	}
}

// TestClusterRoutesToOwner: a cold request at a non-owner is proxied
// to the ring owner (which executes exactly once), the proxy caches
// the artifact, and the next request at the non-owner is a local warm
// hit — cross-node singleflight end to end.
func TestClusterRoutesToOwner(t *testing.T) {
	benches := []string{"synth-11", "synth-12", "synth-13"}
	f := newFleet(t, 3, false, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n1", benches)
	path := fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy)

	rec, body := get(t, f.srvs[0], path)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied simulate = %d: %s", rec.Code, rec.Body.String())
	}
	if string(body["cache"]) != `"peer"` {
		t.Fatalf("cache = %s, want \"peer\"", body["cache"])
	}
	if got := f.srvs[1].executionsSnapshot()[akey]; got != 1 {
		t.Fatalf("owner n1 executions = %d, want 1", got)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want 1", got)
	}

	// The proxy cached the artifact: n0 now serves it without touching
	// the cluster.
	rec, _ = get(t, f.srvs[0], path)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tlsd-Cache") != "hit" {
		t.Fatalf("second request = %d, X-Tlsd-Cache %q, want warm hit",
			rec.Code, rec.Header().Get("X-Tlsd-Cache"))
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions after warm hit = %d, want 1", got)
	}
}

// TestClusterQuorumFailClosed: a node that cannot see a majority
// sheds cold compute with 503 + Retry-After (fail closed — the
// majority side may be executing the same key), still serves warm
// hits, and sheds forwarded requests rather than re-forwarding them.
func TestClusterQuorumFailClosed(t *testing.T) {
	// Three-node membership, but the peers are never started: this
	// node is a 1/3 minority from boot.
	s := fleetNode(t, "n0", []string{"n0", "n1", "n2"}, nil, "", []string{"synth-11"})
	defer s.Close()

	rec, _ := get(t, s, "/simulate?bench=synth-11&policy=C")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold simulate without quorum = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Warm hits bypass routing entirely: replicas must keep serving
	// their copies on the minority side.
	w, _ := s.workload("synth-11")
	akey := tlssync.WorkloadArtifactKey("simulate", w, "C")
	s.store.Put(akey, []byte(`{"warm":true}`))
	rec, _ = get(t, s, "/simulate?bench=synth-11&policy=C")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm hit without quorum = %d, want 200", rec.Code)
	}

	// A forwarded request is never forwarded again — without quorum it
	// sheds so disagreeing ring views cannot loop.
	req := httptest.NewRequest("GET", "/simulate?bench=synth-11&policy=B", nil)
	req.Header.Set(peerHeader, "n1")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("forwarded request without quorum = %d, want 503", rr.Code)
	}

	// /readyz must say why (degraded stays 200 — warm hits still work).
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || string(body["status"]) != `"degraded"` {
		t.Fatalf("readyz without quorum = %d, status %s, want 200/degraded", rec.Code, body["status"])
	}
	if want := `"cluster quorum lost (1/3 alive)"`; !jsonContains(body["reasons"], want) {
		t.Fatalf("readyz reasons = %s, want %s", body["reasons"], want)
	}
}

// TestClusterAdoptionAndFence is the kill9→adopt→reboot cycle in
// miniature: a journaled-pending job on n0 is gossiped, n0 dies, the
// key's first alive successor adopts it (journaling it as its own
// Begin) and executes it exactly once, and the rebooted n0 (epoch
// bumped) recovers its own journal entry through the execution lease —
// whose majority read meets a member holding the adopter's committed
// artifact — instead of re-running it. Zero lost, zero double-executed.
func TestClusterAdoptionAndFence(t *testing.T) {
	benches := []string{"synth-21", "synth-22", "synth-23", "synth-24"}
	f := newFleet(t, 3, true, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n0", benches)
	jkey := "simulate/" + bench + "/" + policy
	f.srvs[0].journal.Begin(journal.Record{Key: jkey, Kind: "simulate", Bench: bench, Label: policy})
	waitGossiped(t, f, 0, []int{1, 2})

	f.kill(0)

	// Exactly one survivor — the key's first alive successor — adopts
	// and completes the job.
	waitCluster(t, "job adopted and completed", func() bool {
		_, done := f.adoptions(jkey, 1, 2)
		return done == 1
	})
	if total, _ := f.adoptions(jkey, 1, 2); total != 1 {
		t.Fatalf("job adopted by %d nodes, want exactly 1", total)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions after adoption = %d, want 1", got)
	}

	// Reboot n0 over the same cache dir. The journal still holds the
	// pending entry; its recovery must find the adopter's artifact
	// instead of re-running it.
	f.reboot(0, benches)
	s0 := f.srvs[0]
	if got := s0.cluster.Epoch(); got != 2 {
		t.Fatalf("rebooted epoch = %d, want 2", got)
	}
	waitCluster(t, "recovered journal entry committed", func() bool {
		return len(s0.journal.Pending()) == 0
	})
	if got := s0.executionsSnapshot()[akey]; got != 0 {
		t.Fatalf("rebooted n0 re-executed the adopted job %d time(s), want 0", got)
	}
	rec, _ := get(t, s0, fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate on rebooted owner = %d: %s", rec.Code, rec.Body.String())
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions after reboot+serve = %d, want 1", got)
	}
}

// waitGossiped waits until every node in at has heartbeat-gossiped at
// least one pending job of node from: adoption only holds what
// heartbeats carried.
func waitGossiped(t *testing.T, f *fleet, from int, at []int) {
	t.Helper()
	for _, i := range at {
		s := f.srvs[i]
		waitCluster(t, "pending job gossiped", func() bool {
			for _, p := range s.cluster.StatusNow().Peers {
				if p.ID == f.ids[from] && p.Pending >= 1 {
					return true
				}
			}
			return false
		})
	}
}

// adoptions counts the adoption records (and completed ones) for a
// journal key across the given live nodes.
func (f *fleet) adoptions(jkey string, nodes ...int) (total, done int) {
	for _, i := range nodes {
		if f.srvs[i] == nil {
			continue
		}
		for _, a := range f.srvs[i].cluster.StatusNow().Adoptions {
			if a.Key == jkey {
				total++
				if a.Done {
					done++
				}
			}
		}
	}
	return total, done
}

// TestClusterAdopterRestartFinishesJob: an adopter killed mid-adoption
// finishes the job from its own journal when it restarts — the
// adoption was journaled as its own Begin — and the job still executes
// exactly once.
func TestClusterAdopterRestartFinishesJob(t *testing.T) {
	benches := []string{"synth-21", "synth-22", "synth-23", "synth-24"}
	regs := []*fault.Registry{fault.NewRegistry(), fault.NewRegistry(), fault.NewRegistry()}
	opts := []func(*config){withFaults(regs[0]), withFaults(regs[1]), withFaults(regs[2])}
	f := newFleetWith(t, 3, true, opts, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n0", benches)
	adopter := -1
	for i, id := range f.ids {
		if id == f.srvs[0].cluster.Ring().Successors(akey, 2)[1] {
			adopter = i
		}
	}
	// The adopter's simulation stalls long enough to be killed mid-run.
	regs[adopter].Arm("jobs.simulate", fault.Fault{Latency: 2 * time.Second})
	jkey := "simulate/" + bench + "/" + policy
	f.srvs[0].journal.Begin(journal.Record{Key: jkey, Kind: "simulate", Bench: bench, Label: policy})
	waitGossiped(t, f, 0, []int{1, 2})

	f.kill(0)
	waitCluster(t, "adoption journaled on the adopter", func() bool {
		for _, p := range f.srvs[adopter].journal.Pending() {
			if p.Record.Key == jkey {
				return true
			}
		}
		return false
	})
	f.kill(adopter)
	// The last survivor has no quorum: nobody else may take the job.
	time.Sleep(2 * testDeadAfter)

	f.reboot(adopter, benches)
	s := f.srvs[adopter]
	waitCluster(t, "adopter finishes the job from its journal", func() bool {
		return len(s.journal.Pending()) == 0
	})
	if _, ok := s.store.Get(akey); !ok {
		t.Fatal("restarted adopter lacks the artifact")
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want exactly 1", got)
	}
}

// TestClusterLeaseLapseDiscards: a holder whose renewals stop being
// acknowledged (cluster.out fault armed mid-simulation) sees its lease
// lapse and neither stores nor counts its result; the lapse is counted
// apart in /cluster, and once the fault heals the job completes with
// exactly one execution.
func TestClusterLeaseLapseDiscards(t *testing.T) {
	benches := []string{"gzip_comp"}
	reg := fault.NewRegistry()
	f := newFleetWith(t, 3, false, []func(*config){withFaults(reg)}, benches...)
	s0 := f.srvs[0]
	w, _ := s0.workload("gzip_comp")
	var policy, akey string
	for _, p := range policyLabels {
		if k := tlssync.WorkloadArtifactKey("simulate", w, p); s0.cluster.Ring().Owner(k) == "n0" {
			policy, akey = p, k
			break
		}
	}
	if akey == "" {
		t.Skip("no gzip_comp policy owned by n0 on this ring")
	}
	if _, err := s0.run(context.Background(), "gzip_comp"); err != nil {
		t.Fatal(err)
	}

	done := make(chan int, 1)
	go func() {
		rec, _ := get(t, s0, "/simulate?bench=gzip_comp&policy="+policy)
		done <- rec.Code
	}()
	waitCluster(t, "n0 holds the lease", func() bool { return s0.cluster.HoldsLease(akey) })
	reg.Arm("cluster.out", fault.Fault{Err: errors.New("injected partition")})
	waitCluster(t, "lapse counted", func() bool { return s0.lapsesSnapshot()[akey] >= 1 })
	for i, s := range f.srvs {
		if _, ok := s.store.Get(akey); ok {
			t.Fatalf("n%d stores the lapsed holder's result", i)
		}
	}
	if got := f.totalExecutions(akey); got != 0 {
		t.Fatalf("lapsed execution counted: executions = %d, want 0", got)
	}
	_, body := get(t, s0, "/cluster")
	if !strings.Contains(string(body["lease_lapses"]), akey) {
		t.Fatalf("/cluster lease_lapses = %s, want %s", body["lease_lapses"], akey)
	}

	reg.Disarm("cluster.out")
	<-done
	waitCluster(t, "job completes after the heal", func() bool { return f.totalExecutions(akey) == 1 })
	time.Sleep(5 * testHeartbeat)
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want exactly 1", got)
	}
}

// TestClusterArtifactRejectsBadKeys: the peer artifact endpoint only
// lets well-formed artifact keys reach the store — a key naming a path
// outside the cache dir answers 400 and touches nothing.
func TestClusterArtifactRejectsBadKeys(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "cache")
	s := fleetNode(t, "n0", []string{"n0", "n1"}, nil, dir, []string{"synth-11"})
	defer s.Close()
	victim := filepath.Join(root, "a", "victim")
	if err := os.WriteFile(victim, []byte("outside"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "../../escape", "../victim", "", "ABC"} {
		req := httptest.NewRequest("POST", "/cluster/artifact?key="+url.QueryEscape(key), strings.NewReader(`{"x":1}`))
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("POST key %q = %d, want 400", key, rr.Code)
		}
		rec, _ := get(t, s, "/cluster/artifact?key="+url.QueryEscape(key))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET key %q = %d, want 400", key, rec.Code)
		}
	}
	for _, p := range []string{filepath.Join(root, "a", "escape"), filepath.Join(root, "escape")} {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("%s was written outside the cache dir", p)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "outside" {
		t.Fatalf("file outside the cache dir was moved or changed: %q, %v", data, err)
	}
	// A well-formed key still round-trips.
	k := store.Key("test", "ok")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("POST", "/cluster/artifact?key="+k, strings.NewReader(`{"x":1}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST valid key = %d", rr.Code)
	}
	if rec, _ := get(t, s, "/cluster/artifact?key="+k); rec.Code != http.StatusOK {
		t.Fatalf("GET valid key = %d", rec.Code)
	}
}

// TestClusterReplication: the owner's committed artifact lands on its
// ring successor, which then serves it warm without executing.
func TestClusterReplication(t *testing.T) {
	benches := []string{"synth-11", "synth-12", "synth-13"}
	f := newFleet(t, 3, false, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n0", benches)
	rec, _ := get(t, f.srvs[0], fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate at owner = %d: %s", rec.Code, rec.Body.String())
	}

	succ := f.srvs[0].cluster.Ring().Successors(akey, 2)[1]
	var replica *server
	for i, id := range f.ids {
		if id == succ {
			replica = f.srvs[i]
		}
	}
	waitCluster(t, "artifact replicated to successor", func() bool {
		_, ok := replica.store.Get(akey)
		return ok
	})
	if got := replica.executionsSnapshot()[akey]; got != 0 {
		t.Fatalf("replica executed %d time(s), want 0 (push only)", got)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want 1", got)
	}
}

// TestClusterStatusSurfaces: /cluster, /stats and /readyz all expose
// the cluster view.
func TestClusterStatusSurfaces(t *testing.T) {
	f := newFleet(t, 3, false, "synth-11")
	s := f.srvs[0]

	rec, body := get(t, s, "/cluster")
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster = %d", rec.Code)
	}
	var st struct {
		Self   string `json:"self"`
		Quorum bool   `json:"quorum"`
		Alive  int    `json:"alive"`
	}
	if err := json.Unmarshal(body["cluster"], &st); err != nil {
		t.Fatalf("cluster section: %v", err)
	}
	if st.Self != "n0" || !st.Quorum || st.Alive != 3 {
		t.Fatalf("cluster = %+v", st)
	}

	rec, body = get(t, s, "/stats")
	if rec.Code != http.StatusOK || body["cluster"] == nil {
		t.Fatalf("/stats = %d, cluster section %s", rec.Code, body["cluster"])
	}
	rec, body = get(t, s, "/readyz")
	if rec.Code != http.StatusOK || body["cluster"] == nil {
		t.Fatalf("/readyz = %d (%s)", rec.Code, rec.Body.String())
	}

	rec, _ = get(t, s, "/cluster/heartbeat")
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster/heartbeat = %d", rec.Code)
	}
}
