package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakePeer is a minimal tlsd stand-in: it answers the heartbeat
// endpoint the detector probes.
type fakePeer struct {
	id      string
	epoch   uint64
	mu      sync.Mutex
	pending []Job
	srv     *httptest.Server
}

func newFakePeer(t *testing.T, id string, epoch uint64) *fakePeer {
	t.Helper()
	p := &fakePeer{id: id, epoch: epoch}
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		hb := Heartbeat{Node: p.id, Epoch: p.epoch, Status: "ok", Pending: append([]Job(nil), p.pending...)}
		p.mu.Unlock()
		json.NewEncoder(w).Encode(hb)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// keyOwnedAfterDeath finds an artifact key whose acting owner, once
// dead is removed, is wantOwner (dead is the ring owner).
func keyOwnedAfterDeath(t *testing.T, r *Ring, dead, wantOwner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("orphan-key-%d", i)
		chain := r.Successors(k, len(r.Nodes()))
		if chain[0] != dead {
			continue
		}
		if chain[1] == wantOwner {
			return k
		}
	}
	t.Fatal("no suitable key found")
	return ""
}

// TestDetectorAdoptsOnce: a peer gossips pending work, dies, and the
// acting-owner survivor adopts each job exactly once — repeated
// detector sweeps and a flapping pending list must not re-adopt.
func TestDetectorAdoptsOnce(t *testing.T) {
	n1 := newFakePeer(t, "n1", 3)
	n2 := newFakePeer(t, "n2", 1)

	var mu sync.Mutex
	var adopted []Adoption
	c, err := New(Config{
		Self:           "n0",
		Nodes:          []string{"n0", "n1", "n2"},
		URLs:           map[string]string{"n1": n1.srv.URL, "n2": n2.srv.URL},
		HeartbeatEvery: 10 * time.Millisecond,
		DeadAfter:      40 * time.Millisecond,
		Epoch:          1,
		Logf:           t.Logf,
		Adopt: func(job Job, from string, epoch uint64) {
			mu.Lock()
			adopted = append(adopted, Adoption{Job: job, From: from, Epoch: epoch})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One key lands on n0 after n1 dies, the other on n2 — only the
	// first may be adopted here.
	mine := keyOwnedAfterDeath(t, c.Ring(), "n1", "n0")
	theirs := keyOwnedAfterDeath(t, c.Ring(), "n1", "n2")
	n1.mu.Lock()
	n1.pending = []Job{
		{Key: "job-mine", AKey: mine, Bench: "gzip_comp", Label: "C"},
		{Key: "job-theirs", AKey: theirs, Bench: "mcf", Label: "E"},
	}
	n1.mu.Unlock()

	c.Start()
	defer c.Close()
	waitFor(t, "both peers alive", func() bool { return len(c.AliveIDs()) == 3 })
	if !c.Quorum() {
		t.Fatal("no quorum with all nodes alive")
	}

	n1.srv.Close() // SIGKILL stand-in
	waitFor(t, "adoption", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(adopted) >= 1
	})
	// Let several more sweeps run: the dedupe must hold.
	time.Sleep(150 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if len(adopted) != 1 {
		t.Fatalf("adopted %d jobs, want exactly 1: %+v", len(adopted), adopted)
	}
	a := adopted[0]
	if a.Key != "job-mine" || a.From != "n1" || a.Epoch != 3 {
		t.Fatalf("adopted wrong job: %+v", a)
	}
	recs := c.StatusNow().Adoptions
	if len(recs) != 1 || recs[0].Key != "job-mine" || recs[0].Done {
		t.Fatalf("adoption records wrong: %+v", recs)
	}
	c.MarkAdoptionDone("job-mine")
	if recs := c.StatusNow().Adoptions; !recs[0].Done {
		t.Fatal("MarkAdoptionDone did not stick")
	}
}

// TestNoAdoptionWithoutQuorum: when this node cannot see a majority
// it must not adopt — the majority side owns the failure.
func TestNoAdoptionWithoutQuorum(t *testing.T) {
	n1 := newFakePeer(t, "n1", 1)

	var mu sync.Mutex
	count := 0
	// 4-node membership, only n1 addressable: after n1 dies, n0 sees
	// 1/4 alive — no quorum.
	c, err := New(Config{
		Self:           "n0",
		Nodes:          []string{"n0", "n1", "n2", "n3"},
		URLs:           map[string]string{"n1": n1.srv.URL},
		HeartbeatEvery: 10 * time.Millisecond,
		DeadAfter:      40 * time.Millisecond,
		Logf:           t.Logf,
		Adopt: func(Job, string, uint64) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n1.mu.Lock()
	n1.pending = []Job{{Key: "j", AKey: "a", Bench: "b", Label: "C"}}
	n1.mu.Unlock()

	c.Start()
	defer c.Close()
	waitFor(t, "n1 alive", func() bool { return len(c.AliveIDs()) == 2 })
	n1.srv.Close()
	waitFor(t, "n1 dead", func() bool { return len(c.AliveIDs()) == 1 })
	time.Sleep(100 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatalf("adopted %d jobs without quorum", count)
	}
	if _, ok := c.Route("anything"); ok {
		t.Fatal("Route succeeded without quorum — must fail closed")
	}
}

// TestHeartbeatIdentityCheck: a heartbeat answered by the wrong node
// (port reuse after restart) must not mark the peer alive.
func TestHeartbeatIdentityCheck(t *testing.T) {
	imposter := newFakePeer(t, "someone-else", 1)
	c, err := New(Config{
		Self:           "n0",
		Nodes:          []string{"n0", "n1"},
		URLs:           map[string]string{"n1": imposter.srv.URL},
		HeartbeatEvery: 10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()
	time.Sleep(100 * time.Millisecond)
	if len(c.AliveIDs()) != 1 {
		t.Fatalf("imposter heartbeat marked peer alive: %v", c.AliveIDs())
	}
}

// TestRouteProxiesToOwner: with all nodes alive, Route returns the
// ring owner for every key (self or peer), and ReplicaSet never
// contains self.
func TestRouteProxiesToOwner(t *testing.T) {
	n1 := newFakePeer(t, "n1", 1)
	n2 := newFakePeer(t, "n2", 1)
	c, err := New(Config{
		Self:           "n0",
		Nodes:          []string{"n0", "n1", "n2"},
		URLs:           map[string]string{"n1": n1.srv.URL, "n2": n2.srv.URL},
		HeartbeatEvery: 10 * time.Millisecond,
		Replicas:       1,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Close()
	waitFor(t, "all alive", func() bool { return len(c.AliveIDs()) == 3 })
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		node, ok := c.Route(k)
		if !ok {
			t.Fatalf("Route(%q) failed with full quorum", k)
		}
		if want := c.Ring().Owner(k); node != want {
			t.Fatalf("Route(%q) = %s, ring owner %s", k, node, want)
		}
		for _, id := range c.ReplicaSet(k) {
			if id == "n0" {
				t.Fatalf("ReplicaSet(%q) contains self", k)
			}
		}
	}
}
