package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tlssync/internal/store"
)

// digestPeer is a fake replica for the anti-entropy sweeper: it
// serves its key digest and accepts/serves artifacts.
type digestPeer struct {
	mu   sync.Mutex
	data map[string][]byte
	srv  *httptest.Server
}

func newDigestPeer(t *testing.T, seed map[string][]byte) *digestPeer {
	t.Helper()
	p := &digestPeer{data: map[string][]byte{}}
	for k, v := range seed {
		p.data[k] = v
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/digest", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		keys := make([]string, 0, len(p.data))
		for k := range p.data {
			keys = append(keys, k)
		}
		p.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"keys": keys})
	})
	mux.HandleFunc("/cluster/artifact", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		if r.Method == "POST" {
			body, _ := io.ReadAll(r.Body)
			p.mu.Lock()
			p.data[key] = body
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		body, ok := p.data[key]
		p.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(body)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

// TestSweepOnce: one digest exchange pushes what the peer is missing,
// pulls what this node is missing, and accounts both.
func TestSweepOnce(t *testing.T) {
	kRemote, kLocal := store.Key("test", "remote"), store.Key("test", "local")
	peer := newDigestPeer(t, map[string][]byte{
		kRemote:     []byte(`{"r":1}`),
		"../escape": []byte(`{"x":1}`), // not an artifact key: never pulled
	})

	var mu sync.Mutex
	local := map[string][]byte{kLocal: []byte(`{"l":1}`)}
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) {
		cfg.URLs = map[string]string{"n1": peer.srv.URL}
		cfg.Replicas = 1 // 2-node chain: every key belongs on both nodes
		cfg.LocalKeys = func() []string {
			mu.Lock()
			defer mu.Unlock()
			keys := make([]string, 0, len(local))
			for k := range local {
				keys = append(keys, k)
			}
			return keys
		}
		cfg.LocalGet = func(k string) ([]byte, bool) {
			mu.Lock()
			defer mu.Unlock()
			v, ok := local[k]
			return v, ok
		}
		cfg.StoreLocal = func(k string, data []byte) error {
			mu.Lock()
			defer mu.Unlock()
			local[k] = data
			return nil
		}
	})
	c.mu.Lock()
	c.peers["n1"].alive = true
	c.mu.Unlock()

	c.sweepOnce()

	peer.mu.Lock()
	pushed := string(peer.data[kLocal])
	peer.mu.Unlock()
	if pushed != `{"l":1}` {
		t.Fatalf("peer's hole not pushed: %q", pushed)
	}
	mu.Lock()
	pulled := string(local[kRemote])
	_, escaped := local["../escape"]
	mu.Unlock()
	if pulled != `{"r":1}` {
		t.Fatalf("local hole not pulled: %q", pulled)
	}
	if escaped {
		t.Fatal("sweep pulled a digest key that is not a valid artifact key")
	}
	st := c.StatusNow()
	if st.AntiEntropy["sweeps"] != 1 || st.AntiEntropy["repair_pushed"] != 1 || st.AntiEntropy["repair_pulled"] != 1 {
		t.Fatalf("anti-entropy counters: %v", st.AntiEntropy)
	}

	// A second sweep finds both sides converged: no further repairs.
	c.sweepOnce()
	st = c.StatusNow()
	if st.AntiEntropy["repair_pushed"] != 1 || st.AntiEntropy["repair_pulled"] != 1 {
		t.Fatalf("converged sweep still repaired: %v", st.AntiEntropy)
	}
}

// TestSweepRespectsChains: on a 3-node ring with one replica, a key
// whose chain is {n1, n0} is pushed only to n1 — never sprayed at
// every peer.
func TestSweepRespectsChains(t *testing.T) {
	p1 := newDigestPeer(t, nil)
	p2 := newDigestPeer(t, nil)
	local := map[string][]byte{}
	c := newTestCluster(t, "n0", []string{"n0", "n1", "n2"}, func(cfg *Config) {
		cfg.URLs = map[string]string{"n1": p1.srv.URL, "n2": p2.srv.URL}
		cfg.Replicas = 1
		cfg.LocalKeys = func() []string {
			keys := make([]string, 0, len(local))
			for k := range local {
				keys = append(keys, k)
			}
			return keys
		}
		cfg.LocalGet = func(k string) ([]byte, bool) { v, ok := local[k]; return v, ok }
	})
	c.mu.Lock()
	c.peers["n1"].alive = true
	c.peers["n2"].alive = true
	c.mu.Unlock()

	// A key whose replica chain is exactly {n1, n0}: owned by n1,
	// replicated here — n2 has no business receiving it.
	key := keyOwnedAfterDeath(t, c.Ring(), "n1", "n0")
	local[key] = []byte(`{"x":1}`)

	c.sweepOnce()

	p1.mu.Lock()
	_, onOwner := p1.data[key]
	p1.mu.Unlock()
	p2.mu.Lock()
	_, onOther := p2.data[key]
	p2.mu.Unlock()
	if !onOwner {
		t.Fatal("owner did not receive its key")
	}
	if onOther {
		t.Fatal("non-chain peer received the key — sweep must respect replica chains")
	}
}

// TestSweepSkipsDeadPeers: a dead peer is not contacted; the error
// counter stays clean.
func TestSweepSkipsDeadPeers(t *testing.T) {
	c := newTestCluster(t, "n0", []string{"n0", "n1"}, func(cfg *Config) {
		cfg.URLs = map[string]string{"n1": "http://127.0.0.1:1"} // nothing listens
		cfg.Replicas = 1
		cfg.LocalKeys = func() []string { return []string{"k"} }
		cfg.LocalGet = func(string) ([]byte, bool) { return []byte("{}"), true }
	})
	// n1 never seen alive: the sweep must not touch it at all.
	c.sweepOnce()
	st := c.StatusNow()
	if st.AntiEntropy["errors"] != 0 {
		t.Fatalf("sweep contacted a dead peer: %v", st.AntiEntropy)
	}
}
