package tlssync

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentBuildsShareNoPooledObjects is the cross-build pooling
// safety net: the event-buffer, memory-page and scoreboard pools are
// process-global, so two builds running concurrently draw
// from the same pools. If an object were ever put back while a build
// still references it, a concurrent build could acquire and overwrite
// it — which -race flags as a data race, and which the output
// comparison below flags as corruption even when the interleaving
// happens to be race-silent. Each goroutine builds a different workload
// (different sizes force buffer regrowth and cross-size reuse) and its
// result must match the serial reference exactly.
func TestConcurrentBuildsShareNoPooledObjects(t *testing.T) {
	ws := Benchmarks()[:4]
	if testing.Short() {
		ws = ws[:2]
	}

	// Serial references first (also pre-warms every pool with buffers
	// the concurrent phase will fight over).
	want := make([]string, len(ws))
	for i, w := range ws {
		want[i] = buildDigest(t, w)
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		got := make([]string, len(ws))
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = buildDigest(t, w)
			}()
		}
		wg.Wait()
		for i := range ws {
			if got[i] != want[i] {
				t.Fatalf("round %d: concurrent build of %s diverged from its serial reference — a pooled object was shared across builds:\nserial: %s\nconcurrent: %s",
					round, ws[i].Name, want[i], got[i])
			}
		}
	}
}

// buildDigest compiles one workload and digests everything the build
// feeds downstream: decisions, stats and the functional trace outputs
// of all three binaries.
func buildDigest(t *testing.T, w *Workload) string {
	t.Helper()
	build, err := Compile(Config{
		Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
	})
	if err != nil {
		t.Errorf("%s: %v", w.Name, err)
		return "error"
	}
	dec, err := json.Marshal(build.Decisions)
	if err != nil {
		t.Error(err)
		return "error"
	}
	out := w.Name + " decisions " + string(dec)
	tr, err := build.Trace(build.Ref, w.Ref)
	if err != nil {
		t.Errorf("%s: %v", w.Name, err)
		return "error"
	}
	o, err := json.Marshal(tr.Output)
	if err != nil {
		t.Error(err)
		return "error"
	}
	events := tr.Events()
	tr.Release()
	return out + " output " + string(o) + fmt.Sprintf(" events %d", events)
}
