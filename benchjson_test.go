package tlssync

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tlssync/internal/jobs"
	"tlssync/internal/profile"
	"tlssync/internal/sim"
)

// TestBenchJSON is the bench-regression harness behind `make bench-json`:
// it times the tlsbench-shaped pipeline (prepare every benchmark through
// the job engine, then prewarm Figure 10) at -j1 and -j4, plus per-stage
// costs on one benchmark, and writes the results to BENCH_pipeline.json
// for CI to archive and compare across commits.
//
// It is opt-in (set BENCH_JSON=1) because it deliberately saturates the
// machine; with BENCH_SMOKE=1 it additionally fails when the -j4
// pipeline is more than 10% SLOWER than -j1 — the cheap canary for a
// parallelism regression (a real speedup check needs quiet hardware,
// which CI runners are not).
func TestBenchJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to run the bench-regression harness")
	}
	names := make([]string, 0, len(Benchmarks()))
	for _, w := range Benchmarks() {
		names = append(names, w.Name)
	}
	if testing.Short() {
		names = names[:3]
	}

	type benchResult struct {
		Name        string  `json:"name"`
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		Iterations  int     `json:"iterations"`
		speedupBase string  // named result this one is compared against
		Speedup     float64 `json:"speedup,omitempty"`
	}
	var results []*benchResult
	record := func(name string, fn func(b *testing.B), base string) *benchResult {
		t.Logf("timing %s ...", name)
		r := testing.Benchmark(fn)
		br := &benchResult{
			Name:        name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			speedupBase: base,
		}
		results = append(results, br)
		t.Logf("  %s: %v/op over %d iteration(s)", name, r.T/time.Duration(max(1, r.N)), r.N)
		return br
	}

	record("pipeline/j1", func(b *testing.B) { benchPipeline(b, names, 1) }, "")
	j4 := record("pipeline/j4", func(b *testing.B) { benchPipeline(b, names, 4) }, "pipeline/j1")

	// Per-stage allocation metrics (bytes/op, allocs/op) so a regression
	// can be attributed to the stage that caused it; the budgets these
	// trend against live in internal/{trace/alloc,sim/pool,ir/arena,
	// interp/mempool}_test.go and docs/perf.md.
	record("stage/compile", func(b *testing.B) { benchBuild(b, names[0]) }, "")
	record("stage/clone", func(b *testing.B) { benchStageClone(b, names[0]) }, "")
	record("stage/trace", func(b *testing.B) { benchStageTrace(b, names[0]) }, "")
	record("stage/profile", func(b *testing.B) { benchStageProfile(b, names[0]) }, "")
	record("stage/sim", func(b *testing.B) { benchStageSim(b, names[0]) }, "")

	byName := make(map[string]*benchResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	for _, r := range results {
		if base, ok := byName[r.speedupBase]; ok && r.NsPerOp > 0 {
			r.Speedup = float64(base.NsPerOp) / float64(r.NsPerOp)
		}
	}

	out := struct {
		GOMAXPROCS int            `json:"gomaxprocs"`
		Short      bool           `json:"short"`
		Benchmarks []string       `json:"benchmarks"`
		Results    []*benchResult `json:"results"`
	}{runtime.GOMAXPROCS(0), testing.Short(), names, results}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile("BENCH_pipeline.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_pipeline.json:\n%s", data)

	if os.Getenv("BENCH_SMOKE") != "" && j4.Speedup < 0.9 {
		t.Errorf("pipeline -j4 is >10%% slower than -j1 (speedup %.2f): parallelism regression", j4.Speedup)
	}
}

// benchPipeline times one tlsbench-shaped sweep: prepare each benchmark
// through a fresh engine's worker pool, then prewarm Figure 10. Fresh
// Runs every iteration — Run memoizes simulations, so reusing them
// would time cache hits.
func benchPipeline(b *testing.B, names []string, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := jobs.New(workers)
		ctx := context.Background()
		runs := make([]*Run, len(names))
		g := eng.NewGroup(ctx)
		for j, name := range names {
			j, name := j, name
			g.Go(fmt.Sprintf("prepare/%s/%d", name, i), func(context.Context) (any, error) {
				w, err := Benchmark(name)
				if err != nil {
					return nil, err
				}
				return NewRun(w)
			}, func(val any, err error) {
				if err == nil {
					runs[j] = val.(*Run)
				}
			})
		}
		if err := g.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := Prewarm(ctx, eng, runs, []string{"10"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBuild times a single benchmark's compile: front end, selection
// and transformation (everything inside core.Compile).
func benchBuild(b *testing.B, name string) {
	b.ReportAllocs()
	w, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
	}
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Per-stage benchmarks. Each isolates one pipeline stage on one
// workload so its bytes/op and allocs/op can be trended independently.

// stageBuild compiles a workload once and returns the pieces the stage
// benchmarks operate on.
func stageBuild(b *testing.B, name string) (*Build, *Workload) {
	b.Helper()
	w, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	build, err := Compile(Config{
		Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return build, w
}

// benchStageClone times the arena-backed Program.DeepCopy/Recycle
// cycle — the per-variant clone every build performs.
func benchStageClone(b *testing.B, name string) {
	b.ReportAllocs()
	build, _ := stageBuild(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := build.Base.DeepCopy()
		cp.Recycle()
	}
}

// benchStageTrace times the functional interpreter producing (and
// releasing) a full region-delimited trace.
func benchStageTrace(b *testing.B, name string) {
	b.ReportAllocs()
	build, w := stageBuild(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := build.Trace(build.Base, w.Ref)
		if err != nil {
			b.Fatal(err)
		}
		tr.Release()
	}
}

// benchStageProfile times dependence-profile analysis over a fixed
// trace.
func benchStageProfile(b *testing.B, name string) {
	b.ReportAllocs()
	build, w := stageBuild(b, name)
	tr, err := build.Trace(build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Analyze(tr)
	}
}

// benchStageSim times the timing simulator (policy U) over a fixed
// trace.
func benchStageSim(b *testing.B, name string) {
	b.ReportAllocs()
	build, w := stageBuild(b, name)
	tr, err := build.Trace(build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU()})
	}
}
