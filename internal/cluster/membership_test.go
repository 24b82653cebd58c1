package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, self string, nodes []string, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{Self: self, Nodes: nodes, Logf: t.Logf}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestApplyJoin: a join bumps the member epoch, rebuilds the ring,
// and is idempotent on re-join.
func TestApplyJoin(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, nil)
	v, err := c.ApplyJoin("n2", "http://127.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	if v.MemberEpoch != 1 || !reflect.DeepEqual(v.Members, []string{"n0", "n1", "n2"}) {
		t.Fatalf("join view = %+v, want epoch 1 over {n0,n1,n2}", v)
	}
	if got := c.Ring().Nodes(); !reflect.DeepEqual(got, []string{"n0", "n1", "n2"}) {
		t.Fatalf("ring not rebuilt: %v", got)
	}
	if u := c.PeerURL("n2"); u != "http://127.0.0.1:9999" {
		t.Fatalf("joiner url = %q", u)
	}
	// Re-join: no epoch bump, url refreshed.
	v2, err := c.ApplyJoin("n2", "http://127.0.0.1:8888")
	if err != nil {
		t.Fatal(err)
	}
	if v2.MemberEpoch != 1 {
		t.Fatalf("re-join bumped the epoch: %+v", v2)
	}
	if u := c.PeerURL("n2"); u != "http://127.0.0.1:8888" {
		t.Fatalf("re-join did not refresh url: %q", u)
	}
	if _, err := c.ApplyJoin("bad id", ""); err == nil {
		t.Fatal("bad node id accepted")
	}
}

// TestApplyMembersGossipFold: a strictly higher remote view applies;
// stale views and views that drop self are refused.
func TestApplyMembersGossipFold(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, nil)
	if !c.ApplyMembers(2, []string{"n0", "n1", "n2", "n3"}, map[string]string{"n3": "http://x"}) {
		t.Fatal("newer view refused")
	}
	if c.MemberEpoch() != 2 || len(c.Members()) != 4 {
		t.Fatalf("view not applied: epoch %d members %v", c.MemberEpoch(), c.Members())
	}
	if c.ApplyMembers(2, []string{"n0", "n1"}, nil) {
		t.Fatal("equal-epoch view applied")
	}
	if c.ApplyMembers(1, []string{"n0", "n1"}, nil) {
		t.Fatal("stale view applied")
	}
	if c.ApplyMembers(9, []string{"n1", "n2"}, nil) {
		t.Fatal("self-dropping view applied — only a local Leave may remove self")
	}
	if c.MemberEpoch() != 2 {
		t.Fatalf("refused views moved the epoch: %d", c.MemberEpoch())
	}
}

// TestApplyMembersRemovesPeer: a view without a former member deletes
// its peer entry so it cannot degrade quorum or /readyz.
func TestApplyMembersRemovesPeer(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, nil)
	if !c.ApplyMembers(1, []string{"n0", "n1"}, nil) {
		t.Fatal("removal view refused")
	}
	st := c.StatusNow()
	if len(st.Peers) != 1 || st.Peers[0].ID != "n1" {
		t.Fatalf("peers after removal: %+v", st.Peers)
	}
	if st.Rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1", st.Rebalances)
	}
}

// TestLeave: removing self bumps the epoch and leaves a ring of the
// survivors; the departing node is no longer an owner of anything.
func TestLeave(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, nil)
	v, err := c.Leave()
	if err != nil {
		t.Fatal(err)
	}
	if v.MemberEpoch != 1 || !reflect.DeepEqual(v.Members, []string{"n1", "n2"}) {
		t.Fatalf("leave view = %+v", v)
	}
	for i := 0; i < 50; i++ {
		if owner := c.Ring().Owner(string(rune('a' + i))); owner == "n0" {
			t.Fatal("departed node still owns keys")
		}
	}
	// Idempotent.
	v2, err := c.Leave()
	if err != nil || v2.MemberEpoch != 1 {
		t.Fatalf("second leave: %+v, %v", v2, err)
	}
}

// TestHeartbeatCarriesMembers: the gossip payload names the view and
// the addresses this node can vouch for.
func TestHeartbeatCarriesMembers(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) {
		cfg.SelfURL = "http://self:1"
		cfg.URLs = map[string]string{"n1": "http://peer:2"}
	})
	if _, err := c.ApplyJoin("n2", "http://joiner:3"); err != nil {
		t.Fatal(err)
	}
	hb := c.HeartbeatPayload()
	if hb.MemberEpoch != 1 || !reflect.DeepEqual(hb.Members, []string{"n0", "n1", "n2"}) {
		t.Fatalf("heartbeat view: %+v", hb)
	}
	want := map[string]string{"n0": "http://self:1", "n1": "http://peer:2", "n2": "http://joiner:3"}
	if !reflect.DeepEqual(hb.URLs, want) {
		t.Fatalf("heartbeat urls = %v, want %v", hb.URLs, want)
	}
}

// TestMembersPersistence: an applied view survives a reboot via the
// members file, even though the new process boots with the old flags.
func TestMembersPersistence(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "members")
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) { cfg.MembersFile = file })
	if _, err := c.ApplyJoin("n2", "http://joiner:3"); err != nil {
		t.Fatal(err)
	}
	// "Reboot": a fresh cluster with the boot-time node set.
	c2 := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) { cfg.MembersFile = file })
	if c2.MemberEpoch() != 1 || !reflect.DeepEqual(c2.Members(), []string{"n0", "n1", "n2"}) {
		t.Fatalf("persisted view not restored: epoch %d members %v", c2.MemberEpoch(), c2.Members())
	}
	if u := c2.PeerURL("n2"); u != "http://joiner:3" {
		t.Fatalf("persisted url lost: %q", u)
	}

	// A self-dropping persisted set is ignored, not fatal.
	if err := os.WriteFile(file, []byte(`{"epoch":9,"members":["n1","n2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) { cfg.MembersFile = file })
	if c3.MemberEpoch() != 0 {
		t.Fatalf("self-dropping persisted view applied: epoch %d", c3.MemberEpoch())
	}
}

// TestSuspectIsNotDead: a peer silent past DeadAfter/2 turns suspect
// — logged, still alive, and crucially NOT adopted from; fresh
// contact clears the suspicion (a flap). Only full DeadAfter silence
// kills the peer and triggers adoption.
func TestSuspectIsNotDead(t *testing.T) {
	var mu sync.Mutex
	adopted := 0
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, func(cfg *Config) {
		cfg.DeadAfter = 1 * time.Second
		cfg.Adopt = func(Job, string, uint64) { mu.Lock(); adopted++; mu.Unlock() }
	})
	base := time.Now()
	c.now = func() time.Time { return base }
	c.mu.Lock()
	p := c.peers["n1"]
	p.everSeen, p.alive, p.lastOK = true, true, base
	p.pending = []Job{{Key: "j", AKey: "a"}}
	q := c.peers["n2"]
	q.everSeen, q.alive, q.lastOK = true, true, base
	c.mu.Unlock()

	// 600ms of silence: suspect, still alive, no adoption.
	c.now = func() time.Time { return base.Add(600 * time.Millisecond) }
	c.sweepDead()
	c.mu.Lock()
	if !p.suspect || !p.alive {
		t.Fatalf("n1 suspect=%v alive=%v, want suspect and alive", p.suspect, p.alive)
	}
	c.mu.Unlock()
	if got := c.StatusNow(); got.Alive != 3 {
		t.Fatalf("suspect reduced the alive count: %+v", got)
	}
	mu.Lock()
	if adopted != 0 {
		t.Fatalf("suspect transition adopted %d jobs", adopted)
	}
	mu.Unlock()

	// The delayed heartbeat lands (what probe does on success):
	// suspicion clears and a later sweep must not re-raise it.
	c.mu.Lock()
	p.suspect = false
	p.lastOK = base.Add(700 * time.Millisecond)
	q.lastOK = base.Add(700 * time.Millisecond)
	c.mu.Unlock()
	c.now = func() time.Time { return base.Add(750 * time.Millisecond) }
	c.sweepDead()
	c.mu.Lock()
	if p.suspect || !p.alive {
		t.Fatalf("flap did not recover: suspect=%v alive=%v", p.suspect, p.alive)
	}
	// Arm the real death: a pending job whose acting owner is n0.
	p.pending = []Job{{Key: "j2", AKey: keyOwnedAfterDeath(t, c.ring, "n1", "n0")}}
	q.lastOK = base.Add(2600 * time.Millisecond) // n2 stays alive
	c.mu.Unlock()

	// Full DeadAfter of silence: dead, and adoption fires exactly once.
	c.now = func() time.Time { return base.Add(2700 * time.Millisecond) }
	c.sweepDead()
	mu.Lock()
	if adopted != 1 {
		t.Fatalf("death adopted %d jobs, want 1", adopted)
	}
	mu.Unlock()
}

// TestReloadPeersFileRace: concurrent file rewrites, detector-style
// reloads, sweeps, and status snapshots must be race-clean (run with
// -race) and end with the latest addresses applied.
func TestReloadPeersFileRace(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "peers")
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, func(cfg *Config) {
		cfg.PeersFile = pf
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writer := func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			body := []byte("n1 127.0.0.1:1000\nn2 127.0.0.1:2000\nn9 127.0.0.1:9000\n")
			tmp := filepath.Join(dir, ".peers-tmp")
			os.WriteFile(tmp, body, 0o644)
			now := time.Now().Add(time.Duration(i) * time.Millisecond)
			os.Chtimes(tmp, now, now) // force a distinct mtime every rewrite
			os.Rename(tmp, pf)
		}
	}
	reader := func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.reloadPeersFile()
			c.sweepDead()
			c.StatusNow()
			c.HeartbeatPayload()
		}
	}
	wg.Add(3)
	go writer()
	go reader()
	go reader()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	c.reloadPeersFile()
	if u := c.PeerURL("n1"); u != "http://127.0.0.1:1000" {
		t.Fatalf("n1 url = %q", u)
	}
	// The non-member line was retained for a future join.
	c.mu.Lock()
	addr := c.fileAddrs["n9"]
	c.mu.Unlock()
	if addr != "http://127.0.0.1:9000" {
		t.Fatalf("non-member address not retained: %q", addr)
	}
	if _, err := c.ApplyJoin("n9", ""); err != nil {
		t.Fatal(err)
	}
	if u := c.PeerURL("n9"); u != "http://127.0.0.1:9000" {
		t.Fatalf("join did not resolve via fileAddrs: %q", u)
	}
}

// TestBoundedSender: pushes flow through the queue with accounting.
func TestBoundedSender(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]byte{}
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/artifact", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got[r.URL.Query().Get("key")] = body
		mu.Unlock()
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) {
		cfg.URLs = map[string]string{"n1": srv.URL}
		cfg.Replicas = 1
		cfg.SendQueue = 4
	})
	c.Start()
	defer c.Close()
	c.ReplicateAsync("k1", []byte(`{"v":1}`))
	waitFor(t, "push delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got["k1"]) > 0
	})
	st := c.StatusNow()
	if st.Replication["queued"] < 1 || st.Replication["pushed"] < 1 {
		t.Fatalf("replication counters: %v", st.Replication)
	}
}

// TestReplicateSkipsCommitted: a replica that already took the
// artifact as a lease commit gets no second push; the others do.
func TestReplicateSkipsCommitted(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/artifact", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got[r.URL.Query().Get("key")]++
		mu.Unlock()
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) {
		cfg.URLs = map[string]string{"n1": srv.URL}
		cfg.Replicas = 1
		cfg.SendQueue = 4
	})
	c.ReplicateAsync("committed", []byte(`{}`), "n1")
	c.ReplicateAsync("pushed", []byte(`{}`))
	c.Start()
	waitFor(t, "queue drained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got["pushed"] == 1 && len(c.sendQ) == 0
	})
	c.Close() // waits for the senders to finish the task in hand
	if got["committed"] != 0 {
		t.Fatalf("n1 took the commit but was pushed %d more time(s)", got["committed"])
	}
	if st := c.StatusNow(); st.Replication["pushed"] != 1 {
		t.Fatalf("replication counters: %v", st.Replication)
	}
}

// TestBoundedSenderOverflow: with no senders draining, a tiny queue
// overflows into the dropped counter without ever blocking.
func TestBoundedSenderOverflow(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) {
		cfg.SendQueue = 2
	})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			c.ReplicateAsync("k", []byte("{}"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ReplicateAsync blocked on a full queue")
	}
	st := c.StatusNow()
	if st.Replication["dropped"] != 8 || st.Replication["queued"] != 2 {
		t.Fatalf("overflow accounting: %v", st.Replication)
	}
}
