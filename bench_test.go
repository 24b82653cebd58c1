package tlssync

// The benchmark harness: one testing.B benchmark per figure/table of the
// paper (DESIGN.md §4 maps each to its experiment), plus ablation
// benchmarks for the design decisions of DESIGN.md §5. Each benchmark
// regenerates its figure end-to-end — compilation, profiling,
// transformation and simulation over all 15 re-created benchmarks — and
// reports domain-specific metrics (violations, speedups) alongside time.
// Per-stage microbenchmarks (BenchmarkStage*) and the opt-in pipeline
// parallelism canary (TestPipelineParallelCanary, `make bench-smoke`)
// close the file. The end-to-end benchmark is perfbench/.
//
// Run with: go test -bench=. -benchmem
// The figures' text output lands next to this file when -printfigs is
// set via: go test -bench=Fig -args -printfigs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"tlssync/internal/ir"
	"tlssync/internal/jobs"
	"tlssync/internal/profile"
	"tlssync/internal/sim"
)

var printFigs = flag.Bool("printfigs", false, "print figure text during benchmarks")

// sharedRuns caches the compiled benchmark suite across benchmarks in one
// process (compilation is identical for every figure).
var (
	runsOnce sync.Once
	runs     []*Run
	runsErr  error
)

func prepared(b *testing.B) []*Run {
	b.Helper()
	runsOnce.Do(func() {
		runs, runsErr = PrepareWorkloads(context.Background(), jobs.New(0), Benchmarks(), nil)
	})
	if runsErr != nil {
		b.Fatal(runsErr)
	}
	return runs
}

func benchFigure(b *testing.B, id string) *Figure {
	b.Helper()
	rs := prepared(b)
	var fig *Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh runs each iteration would re-simulate; the cached Run
		// memoizes per-policy results, so iterations after the first
		// measure the (cheap) aggregation. Report the first iteration's
		// real work via custom metrics instead.
		f, err := Experiments[id](rs)
		if err != nil {
			b.Fatal(err)
		}
		fig = f
	}
	if *printFigs && fig != nil {
		fmt.Println(fig.Text)
	}
	return fig
}

// BenchmarkFig2 regenerates Figure 2 (U vs perfect memory communication).
func BenchmarkFig2(b *testing.B) {
	fig := benchFigure(b, "2")
	var uTotal, oTotal float64
	for _, row := range fig.Rows {
		uTotal += row.Bars[0].Total()
		oTotal += row.Bars[1].Total()
	}
	b.ReportMetric(uTotal/float64(len(fig.Rows)), "U-mean-time")
	b.ReportMetric(oTotal/float64(len(fig.Rows)), "O-mean-time")
}

// BenchmarkFig6 regenerates Figure 6 (prediction threshold study).
func BenchmarkFig6(b *testing.B) {
	fig := benchFigure(b, "6")
	var f5 float64
	for _, row := range fig.Rows {
		f5 += row.Bars[3].Total()
	}
	b.ReportMetric(f5/float64(len(fig.Rows)), "F5-mean-time")
}

// BenchmarkFig7 regenerates the dependence-distance analysis (§2.4).
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, "7")
	// Distance-1 share across all benchmarks.
	rs := prepared(b)
	d1, all := 0, 0
	for _, r := range rs {
		for _, rp := range r.Build.RefProfile.Regions {
			for d, n := range rp.DistanceHistogram() {
				all += n
				if d == 1 {
					d1 += n
				}
			}
		}
	}
	if all > 0 {
		b.ReportMetric(100*float64(d1)/float64(all), "dist1-%")
	}
}

// BenchmarkFig8 regenerates Figure 8 (U vs T vs C).
func BenchmarkFig8(b *testing.B) {
	fig := benchFigure(b, "8")
	improved := 0
	for _, row := range fig.Rows {
		if row.Bars[2].Total() < row.Bars[0].Total()*0.95 {
			improved++
		}
	}
	b.ReportMetric(float64(improved), "benchmarks-improved-by-C")
}

// BenchmarkFig9 regenerates Figure 9 (C vs E vs L).
func BenchmarkFig9(b *testing.B) {
	fig := benchFigure(b, "9")
	var c, e, l float64
	for _, row := range fig.Rows {
		c += row.Bars[0].Total()
		e += row.Bars[1].Total()
		l += row.Bars[2].Total()
	}
	n := float64(len(fig.Rows))
	b.ReportMetric(c/n, "C-mean-time")
	b.ReportMetric(e/n, "E-mean-time")
	b.ReportMetric(l/n, "L-mean-time")
}

// BenchmarkFig10 regenerates Figure 10 (U/P/H/C/B).
func BenchmarkFig10(b *testing.B) {
	fig := benchFigure(b, "10")
	cBest, hBest := 0, 0
	for _, row := range fig.Rows {
		c := row.Bars[3].Total()
		h := row.Bars[2].Total()
		u := row.Bars[0].Total()
		switch {
		case c < h*0.95 && c < u*0.95:
			cBest++
		case h < c*0.95 && h < u*0.95:
			hBest++
		}
	}
	b.ReportMetric(float64(cBest), "compiler-best")
	b.ReportMetric(float64(hBest), "hardware-best")
}

// BenchmarkFig11 regenerates Figure 11 (violation classification).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12 regenerates Figure 12 (program speedups).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "12") }

// BenchmarkTable2 regenerates Table 2 (coverage and speedups).
func BenchmarkTable2(b *testing.B) { benchFigure(b, "T2") }

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// ablateRun compiles one benchmark under a modified configuration and
// returns the normalized C-policy region time.
func ablateTime(b *testing.B, name string, mutate func(*Config)) float64 {
	b.Helper()
	w, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42}
	if mutate != nil {
		mutate(&cfg)
	}
	build, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := build.Trace(build.Ref, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	res := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyC("C")})
	seqTr, err := build.Trace(build.Plain, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	seq := sim.SimulateSequentialRegions(sim.Input{Trace: seqTr})
	return 100 * float64(res.RegionCycles()) / float64(seq.RegionCycles())
}

// BenchmarkAblationCloning compares memory synchronization with and
// without call-path cloning on parser (whose references sit behind
// multi-level call paths).
func BenchmarkAblationCloning(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablateTime(b, "parser", nil)
		without = ablateTime(b, "parser", func(c *Config) { c.NoClone = true })
	}
	b.ReportMetric(with, "with-cloning-time")
	b.ReportMetric(without, "without-cloning-time")
}

// BenchmarkAblationScalarScheduling compares scalar synchronization with
// and without the forwarding-path scheduling of [32].
func BenchmarkAblationScalarScheduling(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablateTime(b, "ijpeg", nil)
		without = ablateTime(b, "ijpeg", func(c *Config) { c.NoScalarSchedule = true })
	}
	b.ReportMetric(with, "scheduled-time")
	b.ReportMetric(without, "unscheduled-time")
}

// BenchmarkAblationThreshold sweeps the group-formation threshold on
// gzip_comp (the benchmark whose dependence population spans the bands).
func BenchmarkAblationThreshold(b *testing.B) {
	var t50, t05, t01 float64
	for i := 0; i < b.N; i++ {
		t50 = ablateTime(b, "gzip_comp", func(c *Config) { c.Threshold = 0.50 })
		t05 = ablateTime(b, "gzip_comp", func(c *Config) { c.Threshold = 0.05 })
		t01 = ablateTime(b, "gzip_comp", func(c *Config) { c.Threshold = 0.01 })
	}
	b.ReportMetric(t50, "thresh50-time")
	b.ReportMetric(t05, "thresh05-time")
	b.ReportMetric(t01, "thresh01-time")
}

// BenchmarkAblationHWReset sweeps the hardware violation-table reset
// interval on go (bursty dependences: long intervals over-synchronize).
func BenchmarkAblationHWReset(b *testing.B) {
	w, err := Benchmark("go")
	if err != nil {
		b.Fatal(err)
	}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var short, long float64
	for i := 0; i < b.N; i++ {
		mach := sim.DefaultMachine()
		mach.HWResetEpochs = 16
		resShort := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyH(), Mach: mach})
		mach.HWResetEpochs = 4096
		resLong := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyH(), Mach: mach})
		short = 100 * float64(resShort.RegionCycles()) / float64(run.SeqRegion)
		long = 100 * float64(resLong.RegionCycles()) / float64(run.SeqRegion)
	}
	b.ReportMetric(short, "reset16-time")
	b.ReportMetric(long, "reset4096-time")
}

// BenchmarkAblationGranularity contrasts line-granularity dependence
// tracking (the default, which sees m88ksim's false sharing) with
// word-granularity tracking (which does not).
func BenchmarkAblationGranularity(b *testing.B) {
	w, err := Benchmark("m88ksim")
	if err != nil {
		b.Fatal(err)
	}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var line, word float64
	for i := 0; i < b.N; i++ {
		resLine := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU()})
		wordMach := sim.DefaultMachine()
		wordMach.LineSize = 8 // one word per "line": no false sharing
		resWord := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU(), Mach: wordMach})
		line = float64(resLine.Violations)
		word = float64(resWord.Violations)
	}
	b.ReportMetric(line, "line-granularity-violations")
	b.ReportMetric(word, "word-granularity-violations")
}

// BenchmarkCompilePipeline measures the full compiler pipeline on the
// largest workload.
func BenchmarkCompilePipeline(b *testing.B) {
	w, err := Benchmark("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(Config{
			Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulation throughput (events/sec).
func BenchmarkSimulator(b *testing.B) {
	w, err := Benchmark("parser")
	if err != nil {
		b.Fatal(err)
	}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	events := tr.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU()})
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAblationOptimizer measures the effect of the classical scalar
// optimizations (gcc -O3's role in the original system) on one benchmark:
// instruction-count reduction and the resulting normalized region time.
func BenchmarkAblationOptimizer(b *testing.B) {
	var plainTime, optTime float64
	for i := 0; i < b.N; i++ {
		plainTime = ablateTime(b, "gcc", nil)
		optTime = ablateTime(b, "gcc", func(c *Config) { c.Optimize = true })
	}
	b.ReportMetric(plainTime, "unoptimized-time")
	b.ReportMetric(optTime, "optimized-time")
}

// BenchmarkExtensionStridePredictor contrasts the paper's last-value
// predictor with a stride predictor (beyond-the-paper extension) on a
// fixed-size allocator loop, whose forwarded value is a bump pointer
// advancing by a constant stride. Last-value prediction finds it
// unpredictable (the paper's conclusion, which generalizes to the
// variable-size allocations of gap); per-epoch stride extrapolation
// captures the fixed-stride case.
func BenchmarkExtensionStridePredictor(b *testing.B) {
	src := `
var arena_top int;
var pool [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { pool[i] = i * 11; }
	parallel for i = 0; i < 500; i = i + 1 {
		var p int = arena_top;
		arena_top = p + 3;
		var j int = 0;
		var acc int = 0;
		while j < 12 {
			acc = acc + pool[(p + j * 31) % 2048];
			j = j + 1;
		}
		out[i % 1024] = acc + p % 101;
	}
	print(arena_top);
}
`
	w := &Workload{Name: "fixed-alloc", Label: "FIXED-ALLOC", Source: src,
		Train: []int64{1}, Ref: []int64{1},
		Character: "fixed-stride bump pointer", PaperCoverage: 1, Expect: "C"}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var lastT, strideT float64
	for i := 0; i < b.N; i++ {
		last := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyP()})
		stride := sim.Simulate(sim.Input{Trace: tr, Policy: sim.Policy{Name: "SP", StridePredict: true}})
		lastT = 100 * float64(last.RegionCycles()) / float64(run.SeqRegion)
		strideT = 100 * float64(stride.RegionCycles()) / float64(run.SeqRegion)
	}
	b.ReportMetric(lastT, "last-value-time")
	b.ReportMetric(strideT, "stride-time")
}

// BenchmarkExtensionFilterSync measures the paper's §4.2 hybrid
// enhancement (iii): hardware filtering of compiler-inserted
// synchronization channels that rarely forward useful values. The
// workload alternates between two heads so the synchronized value never
// arrives from the immediate predecessor: every wait is useless, and the
// filter recovers the serialization it causes.
func BenchmarkExtensionFilterSync(b *testing.B) {
	src := `
var h0 int;
var pad0 [3]int;
var h1 int;
var work [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { work[i] = i * 13 % 997; }
	parallel for i = 0; i < 400; i = i + 1 {
		var v int = 0;
		if i % 2 == 0 { v = h0; } else { v = h1; }
		var j int = 0;
		var acc int = v % 17;
		while j < 10 {
			acc = acc + work[(i * 37 + j * 59) % 2048];
			j = j + 1;
		}
		if i % 2 == 0 { h0 = acc % 1009; } else { h1 = acc % 1013; }
		out[i % 1024] = acc;
	}
	print(h0 + h1);
}
`
	w := &Workload{Name: "alt-heads", Label: "ALT-HEADS", Source: src,
		Train: []int64{1}, Ref: []int64{1},
		Character: "useless distance-2 synchronization", PaperCoverage: 1, Expect: "hurt"}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Ref, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var plainT, filteredT float64
	for i := 0; i < b.N; i++ {
		plain := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyC("C")})
		filtered := sim.Simulate(sim.Input{Trace: tr, Policy: sim.Policy{Name: "CF", FilterSync: true}})
		plainT = 100 * float64(plain.RegionCycles()) / float64(run.SeqRegion)
		filteredT = 100 * float64(filtered.RegionCycles()) / float64(run.SeqRegion)
	}
	b.ReportMetric(plainT, "C-time")
	b.ReportMetric(filteredT, "C+filter-time")
}

// ---------------------------------------------------------------------------
// Per-stage microbenchmarks. Each isolates one pipeline stage on the
// first paper benchmark so its bytes/op and allocs/op can be trended on
// their own; the budgets they trend against live in
// internal/{trace/alloc,sim/pool,ir/arena,interp/mempool}_test.go and
// docs/perf.md. BenchmarkCompilePipeline and BenchmarkSimulator cover
// the compile and simulate stages.

// Sinks keep the compiler from discarding a measured call's result.
var (
	cloneSink   *ir.Program
	profileSink *profile.Profile
)

// stageBuild compiles the first paper benchmark once and returns the
// pieces the stage benchmarks operate on.
func stageBuild(b *testing.B) (*Build, *Workload) {
	b.Helper()
	w := Benchmarks()[0]
	build, err := Compile(Config{
		Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return build, w
}

// BenchmarkStageClone times Program.DeepCopy, the arena-backed clone
// every build performs once per memory-synchronization variant.
func BenchmarkStageClone(b *testing.B) {
	build, _ := stageBuild(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = build.Base.DeepCopy()
	}
}

// BenchmarkStageTrace times the functional interpreter producing (and
// releasing) a full region-delimited trace.
func BenchmarkStageTrace(b *testing.B) {
	build, w := stageBuild(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := build.Trace(build.Base, w.Ref)
		if err != nil {
			b.Fatal(err)
		}
		tr.Release()
	}
}

// BenchmarkStageProfile times dependence-profile analysis over a fixed
// trace.
func BenchmarkStageProfile(b *testing.B) {
	build, w := stageBuild(b)
	tr, err := build.Trace(build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profileSink = profile.Analyze(tr)
	}
}

// ---------------------------------------------------------------------------
// Parallelism canary

// TestPipelineParallelCanary times the tlsbench-shaped pipeline (prepare
// every benchmark through the job engine, then prewarm Figure 10) at
// -j1 and -j4 and fails when -j4 is more than 10% SLOWER than -j1 — the
// cheap canary for a parallelism regression (a real speedup check needs
// quiet hardware, which CI runners are not). It is opt-in (set
// BENCH_SMOKE=1, as `make bench-smoke` does) because it deliberately
// saturates the machine; -short restricts it to three benchmarks.
func TestPipelineParallelCanary(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the pipeline parallelism canary")
	}
	ws := Benchmarks()
	if testing.Short() {
		ws = ws[:3]
	}
	pipeline := func(workers int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh Runs every iteration: Run memoizes simulations,
				// so reusing them would time cache hits.
				eng := jobs.New(workers)
				runs, err := PrepareWorkloads(context.Background(), eng, ws, nil)
				if err == nil {
					err = Prewarm(context.Background(), eng, runs, []string{"10"}, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	j1, j4 := pipeline(1), pipeline(4)
	if j1.N == 0 || j4.N == 0 {
		t.Fatal("pipeline benchmark failed")
	}
	speedup := float64(j1.NsPerOp()) / float64(j4.NsPerOp())
	t.Logf("pipeline over %d workloads: -j1 %v/op, -j4 %v/op, speedup %.2f",
		len(ws), time.Duration(j1.NsPerOp()), time.Duration(j4.NsPerOp()), speedup)
	if speedup < 0.9 {
		t.Errorf("pipeline -j4 is >10%% slower than -j1 (speedup %.2f): parallelism regression", speedup)
	}
}
