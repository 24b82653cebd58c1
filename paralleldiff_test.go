package tlssync

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"tlssync/internal/jobs"
	"tlssync/internal/report"
)

// Worker-count invariance at the benchmark level: simulating a Run's
// policies through a job engine of any size must produce byte-identical
// baselines, simulation results, bars and store keys. This is the
// contract that lets tlsbench/tlsd hand out cached artifacts without
// knowing which engine -j produced them.

// fingerprintFigures are the experiments whose simulations
// runFingerprint prewarms: together they need U, T, C, E and L.
var fingerprintFigures = []string{"8", "9"}

// runFingerprint captures everything a Run feeds into figures and the
// artifact store, with the policy simulations run concurrently on an
// engine of the given size.
func runFingerprint(t *testing.T, w *Workload, workers int) string {
	t.Helper()
	r, err := NewRun(w)
	if err != nil {
		t.Fatalf("-j%d: %v", workers, err)
	}
	if err := Prewarm(context.Background(), jobs.New(workers), []*Run{r}, fingerprintFigures, nil); err != nil {
		t.Fatalf("-j%d: prewarm: %v", workers, err)
	}
	out := fmt.Sprintf("seq region=%d program=%d outside=%d\n",
		r.SeqRegion, r.SeqProgram, r.SeqOutside)
	for _, label := range []string{"U", "T", "C", "E"} {
		res, err := r.Simulate(label)
		if err != nil {
			t.Fatalf("-j%d: %s: %v", workers, label, err)
		}
		rj, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(r.Bar(label, res))
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%s result %s\n%s bar %s\n", label, rj, label, bj)
	}
	for _, label := range []string{"U", "C"} {
		key := r.ArtifactKey("simulate", label)
		if want := WorkloadArtifactKey("simulate", w, label); key != want {
			t.Fatalf("-j%d: run key %q != workload key %q", workers, key, want)
		}
		out += fmt.Sprintf("key %s %s\n", label, key)
	}
	return out
}

func TestParallelDiffBenchmarks(t *testing.T) {
	ws := Benchmarks()
	if testing.Short() {
		ws = ws[:3]
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			want := runFingerprint(t, w, 1)
			for _, workers := range []int{2, 8} {
				if got := runFingerprint(t, w, workers); got != want {
					t.Errorf("-j%d: fingerprint diverged from -j1:\n-j1:\n%s\n-j%d:\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
}

// TestParallelDiffMatrix asserts the determinism contract across the
// scheduler dimension too: byte-identical fingerprints at every point
// of GOMAXPROCS {1,8} x engine -j {1,8}. Worker-count invariance alone could
// mask bugs that only appear when goroutines actually run concurrently
// (GOMAXPROCS>1) or are forcibly serialized (GOMAXPROCS=1) — e.g. a
// pooled object handed to two builds, which only one schedule
// interleaving would expose. GOMAXPROCS is process-global, so the sweep
// is strictly serial (no t.Run parallelism) and restores the previous
// value even on failure.
func TestParallelDiffMatrix(t *testing.T) {
	ws := Benchmarks()[:2]
	if testing.Short() {
		ws = ws[:1]
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range ws {
		want := runFingerprint(t, w, 1) // at the ambient GOMAXPROCS
		for _, g := range []int{1, 8} {
			runtime.GOMAXPROCS(g)
			for _, workers := range []int{1, 8} {
				if got := runFingerprint(t, w, workers); got != want {
					t.Errorf("%s: GOMAXPROCS=%d -j%d: fingerprint diverged from baseline",
						w.Name, g, workers)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestParallelDiffFigures renders whole figures at engine -j1 and -j8
// over a 3-benchmark subset and compares the rendered text and row JSON
// — the actual end artifacts tlsbench emits.
func TestParallelDiffFigures(t *testing.T) {
	ids := []string{"8", "10", "T2"}
	prepare := func(workers int) []*Run {
		ctx, eng := context.Background(), jobs.New(workers)
		runs, err := PrepareWorkloads(ctx, eng, Benchmarks()[:3], nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Prewarm(ctx, eng, runs, ids, nil); err != nil {
			t.Fatal(err)
		}
		return runs
	}
	serial, parallel8 := prepare(1), prepare(8)
	for _, id := range ids {
		fs, err := Experiments[id](serial)
		if err != nil {
			t.Fatalf("fig %s (j1): %v", id, err)
		}
		fp, err := Experiments[id](parallel8)
		if err != nil {
			t.Fatalf("fig %s (j8): %v", id, err)
		}
		if fs.Text != fp.Text {
			t.Errorf("figure %s text differs between -j1 and -j8", id)
		}
		sj, err := report.JSON(fs.Rows)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := report.JSON(fp.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(pj) {
			t.Errorf("figure %s rows differ between -j1 and -j8:\n%s\n%s", id, sj, pj)
		}
	}
}
