package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"tlssync"
	"tlssync/internal/core"
	"tlssync/internal/parallel"
)

// compileCorpus is the number of progen programs the compile workload
// derives from its seed: enough that the corpus's cost varies little
// from one seed to the next.
const compileCorpus = 1000

// compileConfig is the configuration a Run compiles w with: verify in
// enforce mode (the zero value) on the serial pipeline.
func compileConfig(w *tlssync.Workload) core.Config {
	return core.Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42}
}

// timeSetups runs fn n times and returns each duration in seconds.
func timeSetups(n int, fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// compileAll compiles every workload with core.Compile on b.workers
// goroutines and returns the builds, errors and per-program latencies.
func compileAll(b *bench, ws []*tlssync.Workload) ([]*core.Build, []error, []float64) {
	builds := make([]*core.Build, len(ws))
	errs := make([]error, len(ws))
	lat := make([]float64, len(ws))
	_ = parallel.Map(context.Background(), b.workers, len(ws), func(_ context.Context, i int) error {
		t0 := time.Now()
		builds[i], errs[i] = core.Compile(compileConfig(ws[i]))
		lat[i] = ms(time.Since(t0))
		return nil // errs holds every program's outcome
	})
	return builds, errs, lat
}

// checkCorpus compiles the corpus once more, outside the timed phase and
// after the peak RSS is read, and checks every program: the compile
// passes enforce-mode verification with all four verifier reports clean,
// and all variants print the same output on both inputs.
func checkCorpus(b *bench, ws []*tlssync.Workload) {
	fails := make([][]string, len(ws))
	_ = parallel.Map(context.Background(), b.workers, len(ws), func(_ context.Context, i int) error {
		w := ws[i]
		bd, err := core.Compile(compileConfig(w))
		if err != nil {
			fails[i] = append(fails[i], fmt.Sprintf("%s: compile: %v", w.Name, err))
			return nil
		}
		if len(bd.VerifyReports) != 4 {
			fails[i] = append(fails[i], fmt.Sprintf("%s: %d verifier reports, want 4", w.Name, len(bd.VerifyReports)))
		}
		for name, rep := range bd.VerifyReports {
			if !rep.Clean() {
				fails[i] = append(fails[i], fmt.Sprintf("%s: %s binary: verifier errors", w.Name, name))
			}
		}
		for _, in := range [][]int64{w.Train, w.Ref} {
			if err := bd.CheckEquivalence(in); err != nil {
				fails[i] = append(fails[i], fmt.Sprintf("%s: equivalence: %v", w.Name, err))
			}
		}
		return nil
	})
	for _, f := range fails {
		b.check(len(f) == 0, "%s", strings.Join(f, "; "))
	}
}

func runCompile(b *bench) error {
	var corpus []*tlssync.Workload
	setups, err := timeSetups(setupRepeats, func() error {
		corpus = tlssync.SynthBenchmarks(b.opts.seed, compileCorpus)
		return nil
	})
	if err != nil {
		return err
	}
	b.set("setup_s", median(setups))
	if b.opts.trace {
		return compileTraced(b, corpus)
	}

	// Warm-up: one untimed pass fills the interpreter's pools and grows
	// the heap to its working size, so the timed passes measure the
	// steady state.
	compileAll(b, corpus)

	var lat, walls, allocs []float64
	dur := time.Duration(b.opts.seconds) * time.Second
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < dur; iter++ {
		a0, _ := heapAllocs()
		t0 := time.Now()
		_, errs, l := compileAll(b, corpus)
		walls = append(walls, time.Since(t0).Seconds())
		a1, _ := heapAllocs()
		allocs = append(allocs, float64(a1-a0)/(1<<20))
		lat = append(lat, l...)
		for i, err := range errs {
			b.check(err == nil, "%s: compile: %v", corpus[i].Name, err)
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	checkCorpus(b, corpus)
	b.set("wall_s", median(walls))
	b.set("peak_rss_mb", rss)
	b.set("alloc_mb", median(allocs))
	b.set("p50_ms", quantile(lat, 0.5))
	b.set("p90_ms", quantile(lat, 0.9))
	logf("compile: %d passes over %d programs, pass wall times %.3v s", len(walls), len(corpus), walls)
	return nil
}

// compileTraced is the --trace 1 run: one untraced pass over the corpus
// with core.Compile, one traced pass with the per-pass driver (whose
// artifacts must fingerprint-equal core.Compile's), then a
// single-goroutine allocation sample of the interpreter.
func compileTraced(b *bench, corpus []*tlssync.Workload) error {
	compileAll(b, corpus) // the same warm-up the untraced run times after
	t0 := time.Now()
	builds, errs, lat := compileAll(b, corpus)
	wallA := time.Since(t0)
	for i, err := range errs {
		b.check(err == nil, "%s: compile: %v", corpus[i].Name, err)
	}

	tr := newTracer()
	t0 = time.Now()
	got := make([]*passBuild, len(corpus))
	errs = make([]error, len(corpus))
	_ = parallel.Map(context.Background(), b.workers, len(corpus), func(_ context.Context, i int) error {
		root := tr.begin(0, "driver", corpus[i].Name)
		got[i], errs[i] = compilePasses(tr, root, corpus[i].Name, compileConfig(corpus[i]))
		tr.end(root, 0)
		return nil // errs holds every program's outcome
	})
	wallB := time.Since(t0)
	for i, bd := range builds {
		if bd != nil {
			checkPasses(b, corpus[i].Name, got[i], errs[i], bd)
		}
	}

	tot := tr.totals()
	setPassValues(b, tot)
	var coreMS float64
	for _, l := range lat {
		coreMS += l
	}
	b.set("core.ms", coreMS)
	b.set("core.driver_ms", coreMS-passSelfMS(tot))
	b.set("trace.overhead_s", (wallB - wallA).Seconds())

	var sample []*tlssync.Workload
	var sampleBuilds []*core.Build
	for i, bd := range builds {
		if bd != nil && len(sample) < 10 {
			sample = append(sample, corpus[i])
			sampleBuilds = append(sampleBuilds, bd)
		}
	}
	b.set("interp.allocs_per_event", interpAllocsPerEvent(sample, sampleBuilds))
	return writeSpans(filepath.Join(b.opts.out, fmt.Sprintf("spans-compile-seed%d.json", b.opts.seed)),
		map[string]*tracer{"driver": tr})
}

// checkPasses checks the per-pass driver's result for one program
// against core.Compile's build of it.
func checkPasses(b *bench, name string, got *passBuild, err error, want *core.Build) {
	b.check(err == nil, "%s: per-pass driver: %v", name, err)
	if err == nil {
		b.check(passFingerprint(got) == buildFingerprint(want),
			"%s: per-pass driver artifacts differ from core.Compile's", name)
	}
}

// passNames are the span names the per-pass driver records.
var passNames = []string{"lang", "lower", "ir.deepcopy", "regions", "scalarsync", "interp", "profile", "memsync", "verify"}

func passSelfMS(tot map[string]*layerTotal) float64 {
	var s float64
	for _, n := range passNames {
		if lt := tot[n]; lt != nil {
			s += lt.SelfMS
		}
	}
	return s
}

// perSec is a rate from a count and a time in milliseconds.
func perSec(count int64, msTotal float64) float64 {
	if msTotal <= 0 {
		return 0
	}
	return float64(count) / (msTotal / 1000)
}

// setPassValues turns the per-pass driver's span totals into the
// compiler-layer metrics.
func setPassValues(b *bench, tot map[string]*layerTotal) {
	get := func(n string) layerTotal {
		if lt := tot[n]; lt != nil {
			return *lt
		}
		return layerTotal{}
	}
	lang, lower, interp := get("lang"), get("lower"), get("interp")
	b.set("lang.ms", lang.SelfMS)
	b.set("lang.bytes_per_s", perSec(lang.Count, lang.SelfMS))
	b.set("lower.ms", lower.SelfMS)
	b.set("lower.ir_instrs", float64(lower.Count))
	b.set("regions.ms", get("regions").SelfMS)
	b.set("regions.accepted", float64(get("regions").Count))
	b.set("scalarsync.ms", get("scalarsync").SelfMS)
	b.set("memsync.ms", get("memsync").SelfMS)
	b.set("memsync.groups", float64(get("memsync").Count))
	b.set("verify.ms", get("verify").SelfMS)
	b.set("ir.deepcopy_ms", get("ir.deepcopy").SelfMS)
	b.set("interp.ms", interp.SelfMS)
	b.set("interp.events", float64(interp.Count))
	b.set("interp.events_per_s", perSec(interp.Count, interp.SelfMS))
	b.set("profile.ms", get("profile").SelfMS)
	b.set("profile.deps", float64(get("profile").Count))
}

// interpAllocsPerEvent interprets each build's ref binary on its ref
// input on this goroutine alone and returns heap objects allocated per
// dynamic event.
func interpAllocsPerEvent(ws []*tlssync.Workload, builds []*core.Build) float64 {
	var allocs, events uint64
	for i, bd := range builds {
		_, m0 := heapAllocs()
		tr, err := bd.Trace(bd.Ref, ws[i].Ref)
		_, m1 := heapAllocs()
		if err != nil {
			continue
		}
		allocs += m1 - m0
		events += uint64(tr.Events())
		tr.Release()
	}
	if events == 0 {
		return 0
	}
	return float64(allocs) / float64(events)
}
