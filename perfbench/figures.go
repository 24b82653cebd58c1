package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tlssync"
	"tlssync/internal/core"
	"tlssync/internal/ir"
	"tlssync/internal/jobs"
	"tlssync/internal/parallel"
	"tlssync/internal/report"
	"tlssync/internal/sim"
	"tlssync/internal/trace"
)

// goldenBenches are the benchmarks with frozen outputs under
// testdata/golden.
var goldenBenches = []string{"parser", "gzip_comp", "mcf"}

// golden mirrors the frozen per-benchmark output files.
type golden struct {
	SeqRegion  int64            `json:"seq_region"`
	SeqProgram int64            `json:"seq_program"`
	SeqOutside int64            `json:"seq_outside"`
	Fig8Rows   []report.RowJSON `json:"fig8_rows"`
	Fig10Rows  []report.RowJSON `json:"fig10_rows"`
	Table2Text string           `json:"table2_text"`
}

// figRun is one regeneration of every figure and Table 2.
type figRun struct {
	out     []byte         // what tlsbench prints to stdout
	runs    []*tlssync.Run // prepared benchmarks, with cached results
	wall    time.Duration  // prepare + prewarm + experiments
	compute time.Duration  // prepare + prewarm
	simMS   []float64      // execution time of each simulation job
	waitMS  []float64      // queue wait of each job (traced runs only)
	execMS  float64        // summed job execution time
	eng     *jobs.Engine
}

// figuresOnce regenerates every figure and Table 2 in process, as
// tlsbench does by default: PrepareAllJ, Prewarm and Experiments on a
// job engine with one worker per CPU. With a tracer it also records a
// span per job execution and per experiment, and each job's queue wait.
func figuresOnce(b *bench, tr *tracer) (*figRun, error) {
	ctx := context.Background()
	fr := &figRun{eng: jobs.New(b.workers)}
	var mu sync.Mutex
	exec := make(map[string]float64)
	fr.eng.SetWrap(func(key string, fn jobs.JobFunc) jobs.JobFunc {
		return func(ctx context.Context) (any, error) {
			t0 := time.Now()
			v, err := fn(ctx)
			d := time.Since(t0)
			mu.Lock()
			if strings.HasPrefix(key, "simulate/") {
				fr.simMS = append(fr.simMS, ms(d))
			}
			exec[key] = ms(d)
			fr.execMS += ms(d)
			mu.Unlock()
			if tr != nil {
				name, _, _ := strings.Cut(key, "/")
				tr.record("job."+name, key, t0, d)
			}
			return v, err
		}
	})
	wait := func(key string, d time.Duration) {
		if tr == nil {
			return
		}
		mu.Lock()
		fr.waitMS = append(fr.waitMS, ms(d)-exec[key])
		mu.Unlock()
	}

	ids := tlssync.ExperimentIDs()
	start := time.Now()
	runs, err := tlssync.PrepareAllJ(ctx, fr.eng, 1, func(bench string, d time.Duration, err error) {
		if err == nil {
			wait("prepare/"+bench, d)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	err = tlssync.Prewarm(ctx, fr.eng, runs, ids, func(bench, label string, d time.Duration, err error) {
		if err == nil {
			wait("simulate/"+bench+"/"+label, d)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	fr.compute = time.Since(start)
	var out bytes.Buffer
	for _, id := range ids {
		t0 := time.Now()
		f, err := tlssync.Experiments[id](runs)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		if tr != nil {
			tr.record("report", id, t0, time.Since(t0))
		}
		out.WriteString(f.Text)
		out.WriteByte('\n')
	}
	fr.wall = time.Since(start)
	fr.out = out.Bytes()
	fr.runs = runs
	return fr, nil
}

// figureRefs are the expected outputs: tlsbench's stdout recorded at the
// commit that introduced the benchmark, and the golden files.
type figureRefs struct {
	stdout  []byte
	goldens map[string][]byte
}

func loadFigureRefs(root string) (*figureRefs, error) {
	ref := &figureRefs{goldens: make(map[string][]byte)}
	var err error
	ref.stdout, err = os.ReadFile(filepath.Join(root, "perfbench", "reference", "figures.txt"))
	if err != nil {
		return nil, err
	}
	for _, name := range goldenBenches {
		data, err := os.ReadFile(filepath.Join(root, "testdata", "golden", name+".json"))
		if err != nil {
			return nil, err
		}
		var g golden
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		ref.goldens[name] = data
	}
	return ref, nil
}

// checkFigures compares one regeneration with the reference stdout and
// the golden files (Fig 8 and Fig 10 rows, Table 2 text, baselines).
func checkFigures(b *bench, fr *figRun, ref *figureRefs) {
	b.check(bytes.Equal(fr.out, ref.stdout), "figures: stdout differs from the reference: %s", firstDiff(fr.out, ref.stdout))
	for _, name := range goldenBenches {
		var r *tlssync.Run
		for _, run := range fr.runs {
			if run.W.Name == name {
				r = run
			}
		}
		got, err := goldenOf(r)
		if err != nil {
			b.check(false, "golden %s: %v", name, err)
			continue
		}
		b.check(bytes.Equal(got, ref.goldens[name]), "golden %s: output differs: %s", name, firstDiff(got, ref.goldens[name]))
	}
}

// goldenOf renders a prepared run in the golden files' format.
func goldenOf(r *tlssync.Run) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("benchmark not prepared")
	}
	runs := []*tlssync.Run{r}
	f8, err := tlssync.Fig8(runs)
	if err != nil {
		return nil, err
	}
	f10, err := tlssync.Fig10(runs)
	if err != nil {
		return nil, err
	}
	t2, err := tlssync.Table2(runs)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(golden{
		SeqRegion: r.SeqRegion, SeqProgram: r.SeqProgram, SeqOutside: r.SeqOutside,
		Fig8Rows: report.RowsJSON(f8.Rows), Fig10Rows: report.RowsJSON(f10.Rows), Table2Text: t2.Text,
	}, "", "  ")
	return append(data, '\n'), err
}

// firstDiff describes where two outputs first differ.
func firstDiff(got, want []byte) string {
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) || i >= len(wl) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	return "identical"
}

func runFigures(b *bench) error {
	var ref *figureRefs
	setups, err := timeSetups(setupRepeats, func() error {
		var err error
		ref, err = loadFigureRefs(b.opts.root)
		if n := len(tlssync.Benchmarks()); err == nil && n != 15 {
			err = fmt.Errorf("expected the 15 paper benchmarks, have %d", n)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("setup_s", median(setups))
	if b.opts.trace {
		return figuresTraced(b, ref)
	}

	var walls, allocs, simMS []float64
	dur := time.Duration(b.opts.seconds) * time.Second
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < dur; iter++ {
		runtime.GC() // the previous regeneration's runs are garbage now
		a0, _ := heapAllocs()
		fr, err := figuresOnce(b, nil)
		if err != nil {
			return err
		}
		a1, _ := heapAllocs()
		walls = append(walls, fr.wall.Seconds())
		allocs = append(allocs, float64(a1-a0)/(1<<20))
		simMS = append(simMS, fr.simMS...)
		checkFigures(b, fr, ref)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.set("wall_s", median(walls))
	b.set("peak_rss_mb", rss)
	b.set("alloc_mb", median(allocs))
	b.set("p50_ms", quantile(simMS, 0.5))
	b.set("p90_ms", quantile(simMS, 0.9))
	logf("figures: %d regenerations (%.3v s), %d simulation jobs", len(walls), walls, len(simMS))
	return nil
}

// figuresTraced is the --trace 1 run: one untraced regeneration, one
// traced regeneration (job and report spans, queue waits), then a layer
// pass over the traced run's benchmarks: the per-pass compiler driver,
// every binary's trace, the sequential baseline and every simulation the
// figures ran, each re-run under a span and checked against the
// figures' cached result.
func figuresTraced(b *bench, ref *figureRefs) error {
	runtime.GC()
	frA, err := figuresOnce(b, nil)
	if err != nil {
		return err
	}
	checkFigures(b, frA, ref)
	wallA := frA.wall
	frA = nil
	runtime.GC()

	tr := newTracer()
	fr, err := figuresOnce(b, tr)
	if err != nil {
		return err
	}
	checkFigures(b, fr, ref)
	b.set("trace.overhead_s", (fr.wall - wallA).Seconds())
	st := fr.eng.Stats()
	b.set("jobs.queue_wait_ms", mean(fr.waitMS))
	b.set("jobs.busy_ratio", fr.execMS/(float64(b.workers)*ms(fr.compute)))
	b.set("jobs.coalesced_ratio", float64(st.Coalesced)/float64(st.Submitted+st.Coalesced))
	if lt := tr.totals()["report"]; lt != nil {
		b.set("report.ms", lt.TotalMS)
	}

	layers := newTracer()
	compileLayers(b, layers, fr.runs)
	simLayers(b, layers, fr.runs, figureSpecs)
	tot := layers.totals()
	setPassValues(b, tot)
	setSimValues(b, tot)
	var sample []*tlssync.Run
	for _, r := range fr.runs {
		for _, name := range goldenBenches {
			if r.W.Name == name {
				sample = append(sample, r)
			}
		}
	}
	interpAPE, simAPE := allocsPerEvent(sample, figureSpecs)
	b.set("interp.allocs_per_event", interpAPE)
	b.set("sim.allocs_per_event", simAPE)

	return writeSpans(filepath.Join(b.opts.out, fmt.Sprintf("spans-figures-seed%d.json", b.opts.seed)),
		map[string]*tracer{"regeneration": tr, "layers": layers})
}

// compileLayers times core.Compile and the per-pass driver on each run's
// workload, one after the other on this goroutine, and checks that the
// two produce fingerprint-equal artifacts; core.ms and core.driver_ms
// come from here.
func compileLayers(b *bench, tr *tracer, runs []*tlssync.Run) {
	var coreMS float64
	for _, r := range runs {
		t0 := time.Now()
		bd, err := core.Compile(compileConfig(r.W))
		coreMS += ms(time.Since(t0))
		b.check(err == nil, "%s: compile: %v", r.W.Name, err)
		if err != nil {
			continue
		}
		root := tr.begin(0, "driver", r.W.Name)
		pb, err := compilePasses(tr, root, r.W.Name, compileConfig(r.W))
		tr.end(root, 0)
		checkPasses(b, r.W.Name, pb, err, bd)
	}
	b.set("core.ms", coreMS)
	b.set("core.driver_ms", coreMS-passSelfMS(tr.totals()))
}

// binaryOf returns the program a simulation spec runs on (the mapping
// Run.SimulateSpec applies).
func binaryOf(r *tlssync.Run, sp tlssync.SimSpec) *ir.Program {
	bin := sp.Binary
	if bin == "" {
		switch sp.Label {
		case "T":
			bin = "train"
		case "C", "E", "L", "B":
			bin = "ref"
		}
	}
	switch bin {
	case "train":
		return r.Build.Train
	case "ref":
		return r.Build.Ref
	}
	return r.Build.Base
}

// figureSpecs returns each distinct simulation the figures run on r.
func figureSpecs(r *tlssync.Run) []tlssync.SimSpec {
	seen := make(map[string]bool)
	var out []tlssync.SimSpec
	for _, id := range tlssync.ExperimentIDs() {
		for _, sp := range tlssync.SpecsFor(id, []*tlssync.Run{r}) {
			if !seen[sp.Label] {
				seen[sp.Label] = true
				out = append(out, sp)
			}
		}
	}
	return out
}

// simLayers re-runs, per benchmark on b.workers goroutines, the traces
// of every binary ("interp" spans), the sequential baseline ("sim.seq")
// and every simulation specs lists ("sim.<label>"), checking each
// result against the one the workload computed.
func simLayers(b *bench, tr *tracer, runs []*tlssync.Run, specs func(*tlssync.Run) []tlssync.SimSpec) {
	checks := make([]int, len(runs))
	fails := make([][]string, len(runs))
	_ = parallel.Map(context.Background(), b.workers, len(runs), func(_ context.Context, i int) error {
		r := runs[i]
		check := func(ok bool, format string, args ...any) {
			checks[i]++
			if !ok {
				fails[i] = append(fails[i], fmt.Sprintf(format, args...))
			}
		}
		traces := make(map[*ir.Program]*trace.ProgramTrace)
		for _, p := range []*ir.Program{r.Build.Plain, r.Build.Base, r.Build.Train, r.Build.Ref} {
			id := tr.begin(0, "interp", r.W.Name)
			t, err := r.Build.Trace(p, r.W.Ref)
			var events int64
			if err == nil {
				events = int64(t.Events())
				traces[p] = t
			}
			tr.end(id, events)
			check(err == nil, "%s: trace: %v", r.W.Name, err)
		}
		if t := traces[r.Build.Plain]; t != nil {
			id := tr.begin(0, "sim.seq", r.W.Name)
			seq := sim.SimulateSequentialRegions(sim.Input{Trace: t})
			tr.end(id, int64(t.Events()))
			check(seq.RegionCycles() == r.SeqRegion && seq.TotalCycles == r.SeqProgram,
				"%s: sequential baseline differs from the run's", r.W.Name)
		}
		for _, sp := range specs(r) {
			t := traces[binaryOf(r, sp)]
			if t == nil {
				continue
			}
			id := tr.begin(0, "sim."+sp.Label, r.W.Name)
			res := sim.Simulate(sim.Input{Trace: t, Policy: sp.Policy})
			tr.end(id, int64(t.Events()))
			want, err := r.SimulateSpec(sp) // cached by the workload
			got, _ := json.Marshal(res)     // results are plain data and always marshal
			exp, _ := json.Marshal(want)
			check(err == nil && bytes.Equal(got, exp), "%s: simulation %s differs from the workload's result", r.W.Name, sp.Label)
		}
		for _, t := range traces {
			t.Release()
		}
		return nil // failures are in fails
	})
	for i := range runs {
		b.tally(checks[i], fails[i])
	}
}

// setSimValues turns the simulation spans into the sim-layer metrics.
func setSimValues(b *bench, tot map[string]*layerTotal) {
	var events int64
	var simMS float64
	for _, name := range append([]string{"seq"}, simLabels...) {
		lt := tot["sim."+name]
		if lt == nil {
			b.set("sim."+name+".ms", 0)
			continue
		}
		b.set("sim."+name+".ms", lt.SelfMS)
		events += lt.Count
		simMS += lt.SelfMS
	}
	if simMS > 0 {
		b.set("sim.events_per_s", float64(events)/(simMS/1000))
	}
}

// allocsPerEvent traces each run's binaries and simulates every spec on
// this goroutine alone, and returns heap objects allocated per dynamic
// event by the interpreter and by the simulator.
func allocsPerEvent(runs []*tlssync.Run, specs func(*tlssync.Run) []tlssync.SimSpec) (interpAPE, simAPE float64) {
	var ia, ie, sa, se uint64
	for _, r := range runs {
		traces := make(map[*ir.Program]*trace.ProgramTrace)
		for _, p := range []*ir.Program{r.Build.Base, r.Build.Train, r.Build.Ref} {
			_, m0 := heapAllocs()
			t, err := r.Build.Trace(p, r.W.Ref)
			_, m1 := heapAllocs()
			if err != nil {
				continue
			}
			ia += m1 - m0
			ie += uint64(t.Events())
			traces[p] = t
		}
		for _, sp := range specs(r) {
			t := traces[binaryOf(r, sp)]
			if t == nil {
				continue
			}
			_, m0 := heapAllocs()
			sim.Simulate(sim.Input{Trace: t, Policy: sp.Policy})
			_, m1 := heapAllocs()
			sa += m1 - m0
			se += uint64(t.Events())
		}
		for _, t := range traces {
			t.Release()
		}
	}
	if ie > 0 {
		interpAPE = float64(ia) / float64(ie)
	}
	if se > 0 {
		simAPE = float64(sa) / float64(se)
	}
	return interpAPE, simAPE
}
