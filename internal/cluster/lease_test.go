package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlssync/internal/store"
)

// leaseNode is one in-process member speaking the real lease protocol
// over HTTP, with a map for its artifact store and a switch that fails
// every outbound peer call (the cluster.out fault seam).
type leaseNode struct {
	c    *Cluster
	srv  *httptest.Server
	mu   sync.Mutex
	art  map[string][]byte
	fail atomic.Bool
}

func (n *leaseNode) get(k string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.art[k]
	return v, ok
}

func (n *leaseNode) put(k string, v []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.art[k] = v
	return nil
}

// newLeaseFleet starts n members (n0..) with fast heartbeats and waits
// for full mutual liveness.
func newLeaseFleet(t *testing.T, n int, heartbeat, deadAfter time.Duration) []*leaseNode {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	nodes := make([]*leaseNode, n)
	for i := range nodes {
		ln := &leaseNode{art: map[string][]byte{}}
		mux := http.NewServeMux()
		mux.HandleFunc("/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) { ln.c.ServeHeartbeat(w, r) })
		mux.HandleFunc("/cluster/lease", func(w http.ResponseWriter, r *http.Request) { ln.c.ServeLease(w, r) })
		mux.HandleFunc("/cluster/artifact", func(w http.ResponseWriter, r *http.Request) {
			if v, ok := ln.get(r.URL.Query().Get("key")); ok {
				w.Write(v)
				return
			}
			http.NotFound(w, r)
		})
		ln.srv = httptest.NewServer(mux)
		nodes[i] = ln
	}
	for i, ln := range nodes {
		urls := map[string]string{}
		for j, o := range nodes {
			if j != i {
				urls[ids[j]] = o.srv.URL
			}
		}
		ln := ln
		c, err := New(Config{
			Self:           ids[i],
			Nodes:          ids,
			URLs:           urls,
			HeartbeatEvery: heartbeat,
			DeadAfter:      deadAfter,
			Logf:           func(string, ...any) {},
			Fire: func(string) error {
				if ln.fail.Load() {
					return errors.New("injected cluster.out fault")
				}
				return nil
			},
			LocalGet:   ln.get,
			StoreLocal: ln.put,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln.c = c
	}
	for _, ln := range nodes {
		ln.c.Start()
	}
	t.Cleanup(func() {
		for _, ln := range nodes {
			ln.c.Close()
			ln.srv.Close()
		}
	})
	for _, ln := range nodes {
		ln := ln
		waitFor(t, "mutual liveness", func() bool { return len(ln.c.AliveIDs()) == n })
	}
	return nodes
}

// execute is the daemon's execution path in miniature: take the lease
// (waiting on conflicts), run, commit to a majority, store, count.
func (n *leaseNode) execute(ctx context.Context, key string, runs *atomic.Int64) error {
	for {
		l, err := n.c.AcquireLease(ctx, key, true)
		if err != nil {
			return err
		}
		data := []byte(`{"key":"` + key + `"}`)
		if _, err := l.Commit(ctx, data); err != nil || !l.Valid() {
			l.Release()
			continue // lapsed: discard, go round again
		}
		n.put(key, data)
		runs.Add(1)
		l.Release()
		return nil
	}
}

// TestLeaseRaceExactlyOnce: three members race to execute the same key,
// 200 times over; exactly one runs each key, and the other two end with
// the artifact (pulled from the read majority) instead of running.
func TestLeaseRaceExactlyOnce(t *testing.T) {
	nodes := newLeaseFleet(t, 3, 5*time.Millisecond, 400*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for rep := 0; rep < 200; rep++ {
		key := store.Key("lease-race", fmt.Sprint(rep))
		var runs atomic.Int64
		errs := make([]error, len(nodes))
		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func(i int, n *leaseNode) {
				defer wg.Done()
				errs[i] = n.execute(ctx, key, &runs)
			}(i, n)
		}
		wg.Wait()
		if got := runs.Load(); got != 1 {
			t.Fatalf("rep %d: key executed %d times, want exactly 1 (errs %v)", rep, got, errs)
		}
		for i, err := range errs {
			if err != nil && !errors.Is(err, ErrLanded) {
				t.Fatalf("rep %d: n%d: %v", rep, i, err)
			}
			if _, ok := nodes[i].get(key); !ok {
				t.Fatalf("rep %d: n%d ended without the artifact", rep, i)
			}
		}
	}
}

// TestLeaseLapsesWithoutRenewalAcks: a holder whose outbound calls all
// fail (its renewals are never acknowledged) sees its lease lapse
// within TTL, cannot commit, and a successor then acquires the key.
func TestLeaseLapsesWithoutRenewalAcks(t *testing.T) {
	nodes := newLeaseFleet(t, 3, 10*time.Millisecond, 200*time.Millisecond)
	ctx := context.Background()
	key := store.Key("lease-lapse")
	l, err := nodes[0].c.AcquireLease(ctx, key, false)
	if err != nil {
		t.Fatal(err)
	}
	// Renewals keep the lease valid well past one TTL.
	time.Sleep(3 * nodes[0].c.LeaseTTL())
	if !l.Valid() {
		t.Fatal("lease lapsed while renewals were acknowledged")
	}
	if _, err := nodes[1].c.AcquireLease(ctx, key, false); !errors.Is(err, ErrDeferred) {
		t.Fatalf("second acquirer while the lease is live: err = %v, want ErrDeferred", err)
	}

	nodes[0].fail.Store(true)
	waitFor(t, "lease lapse", func() bool { return !l.Valid() })
	if _, err := l.Commit(ctx, []byte(`{}`)); err == nil {
		t.Fatal("a lapsed holder committed")
	}
	for i, n := range nodes {
		if _, ok := n.get(key); ok {
			t.Fatalf("n%d stores the lapsed holder's result", i)
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	l2, err := nodes[1].c.AcquireLease(wctx, key, true)
	if err != nil {
		t.Fatalf("successor acquire after the lapse: %v", err)
	}
	l2.Release()
	l.Release()
}

// TestLeaseTable: the member-side rules — records expire TTL after
// their last renewal, an expired record is never resurrected by a late
// renewal or commit, a record from an older boot epoch neither
// replaces, renews nor releases a newer one, and malformed keys are
// rejected.
func TestLeaseTable(t *testing.T) {
	stored := map[string]bool{}
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, func(cfg *Config) {
		cfg.DeadAfter = 2 * time.Second
		cfg.StoreLocal = func(k string, _ []byte) error { stored[k] = true; return nil }
	})
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	c.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	key := store.Key("lease-table")
	rec := LeaseRecord{Key: key, Holder: "n1", Epoch: 2}

	serve := func(method, holder string, epoch int, extra string) int {
		rr := httptest.NewRecorder()
		path := fmt.Sprintf("/cluster/lease?key=%s&holder=%s&epoch=%d%s", key, holder, epoch, extra)
		c.ServeLease(rr, httptest.NewRequest(method, path, strings.NewReader(`{}`)))
		return rr.Code
	}
	live := func() []LeaseRecord {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.liveLeasesLocked(key)
	}
	renew := func(r LeaseRecord) bool {
		rr := httptest.NewRecorder()
		body := fmt.Sprintf(`[{"key":%q,"holder":%q,"epoch":%d}]`, r.Key, r.Holder, r.Epoch)
		c.ServeHeartbeat(rr, httptest.NewRequest("POST", "/cluster/heartbeat", strings.NewReader(body)))
		return rr.Code == 200 && !strings.Contains(rr.Body.String(), `"refused"`)
	}

	if code := serve("POST", "n1", 2, ""); code != 200 {
		t.Fatalf("acquire write = %d", code)
	}
	if got := live(); len(got) != 1 || got[0] != rec {
		t.Fatalf("live = %v, want [%v]", got, rec)
	}
	if h, ok := c.LeaseHolder(key); !ok || h != "n1" {
		t.Fatalf("LeaseHolder = %q, %v", h, ok)
	}
	// TTL = DeadAfter/2 = 1s; a renewal at 0.9s carries it to 1.9s.
	advance(900 * time.Millisecond)
	if !renew(rec) {
		t.Fatal("renewal of a live record refused")
	}
	advance(900 * time.Millisecond)
	if len(live()) != 1 {
		t.Fatal("record expired before TTL after its last renewal")
	}
	// A commit is a renewal that also stores the artifact.
	if code := serve("POST", "n1", 2, "&commit=1"); code != 200 || !stored[key] {
		t.Fatalf("commit of a live record = %d (stored %v), want 200 and stored", code, stored[key])
	}
	delete(stored, key)
	advance(900 * time.Millisecond)
	// An older incarnation cannot replace, renew or release it.
	if code := serve("POST", "n1", 1, ""); code != http.StatusConflict {
		t.Fatalf("stale-epoch write = %d, want 409", code)
	}
	if renew(LeaseRecord{Key: key, Holder: "n1", Epoch: 1}) {
		t.Fatal("stale-epoch renewal accepted")
	}
	serve("DELETE", "n1", 1, "")
	if len(live()) != 1 {
		t.Fatal("stale-epoch release dropped the live record")
	}
	// Past TTL the record is gone, and neither a renewal nor a commit
	// brings it back.
	advance(time.Second)
	if len(live()) != 0 {
		t.Fatalf("record outlived its TTL: %v", live())
	}
	if renew(rec) {
		t.Fatal("renewal resurrected an expired record")
	}
	if code := serve("POST", "n1", 2, "&commit=1"); code != http.StatusConflict || stored[key] {
		t.Fatalf("commit of an expired record = %d (stored %v), want 409 and nothing stored", code, stored[key])
	}
	// A newer incarnation's write supersedes; its release drops it.
	if code := serve("POST", "n1", 3, ""); code != 200 {
		t.Fatalf("newer-epoch write = %d", code)
	}
	serve("DELETE", "n1", 3, "")
	if len(live()) != 0 {
		t.Fatal("release did not drop the record")
	}
	for _, bad := range []string{"../escape", "short"} {
		for _, method := range []string{"GET", "POST"} {
			rr := httptest.NewRecorder()
			c.ServeLease(rr, httptest.NewRequest(method, "/cluster/lease?holder=n1&epoch=1&key="+url.QueryEscape(bad), nil))
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("%s bad key %q = %d, want 400", method, bad, rr.Code)
			}
		}
	}
}
