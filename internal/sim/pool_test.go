package sim

import (
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/ir"
	"tlssync/internal/memsync"
	"tlssync/internal/racedetect"
	"tlssync/internal/trace"
	"tlssync/internal/workloads"
)

// Pool-contamination tests for the scoreboard pools, mirroring
// internal/interp/pool_test.go: dirty an object, recycle it, re-acquire
// it, and assert it is indistinguishable from a fresh allocation. This
// is the invariant that keeps simulation deterministic under pooling.

// dirtyRun fills every recyclable field of an epochRun with junk.
func dirtyRun(run *epochRun) {
	run.idx, run.gen, run.cpu = 7, 3, 5
	run.slots = Slots{Busy: 11, Fail: 13}
	run.finished = true
	run.finishCycle, run.lastComplete, run.stallUntil = 101, 102, 103
	run.stallSync, run.stallFail = true, true
	run.loadLines[0x1000] = loadMark{}
	run.storeLines[0x2000] = 9
	run.storeWords[0x3000] = true
	run.consumedGen = 4
	run.signaled[5] = true
	run.sigBuf[0x4000] = 6
	run.sigBufPeak = 7
	run.mispredicted, run.predictBan = true, true
	run.mispredictPCs = append(run.mispredictPCs, 42)
	run.trainings = append(run.trainings, pcVal{})
	run.scalarWait, run.memWait, run.hwWait = 1, 2, 3
	run.span = &EpochSpan{}
	run.frames = append(run.frames, getFrameSB(99, 3))
	run.frames[0].setReady(7, 1234)
}

func TestRunPoolNoContamination(t *testing.T) {
	m := &machine{}
	run := m.newRun(&trace.Epoch{Index: 1}, 2)
	dirtyRun(run)
	putRun(run)

	got := m.newRun(&trace.Epoch{Index: 0}, 0)
	if got.idx != 0 || got.gen != 0 || got.cpu != 0 {
		t.Errorf("recycled run leaked position state: idx=%d gen=%d cpu=%d", got.idx, got.gen, got.cpu)
	}
	if got.slots != (Slots{}) {
		t.Errorf("recycled run leaked slot accounting: %+v", got.slots)
	}
	if got.finished || got.finishCycle != 0 || got.lastComplete != 0 || got.stallUntil != 0 || got.stallSync || got.stallFail {
		t.Error("recycled run leaked stall/finish state")
	}
	if len(got.loadLines) != 0 || len(got.storeLines) != 0 || len(got.storeWords) != 0 {
		t.Error("recycled run leaked dependence-tracking maps")
	}
	if got.consumedGen != -1 || len(got.signaled) != 0 || len(got.sigBuf) != 0 || got.sigBufPeak != 0 {
		t.Error("recycled run leaked synchronization state")
	}
	if got.mispredicted || got.predictBan || len(got.mispredictPCs) != 0 || len(got.trainings) != 0 {
		t.Error("recycled run leaked prediction state")
	}
	if got.scalarWait != 0 || got.memWait != 0 || got.hwWait != 0 {
		t.Error("recycled run leaked stall accounting")
	}
	if got.span != nil {
		t.Error("recycled run leaked its timeline span")
	}
	if len(got.frames) != 1 {
		t.Fatalf("recycled run has %d frames, want exactly the base frame", len(got.frames))
	}
	if f := got.frames[0]; len(f.ready) != 0 || f.readyAt(7) != 0 || f.base != 0 || f.callDst != ir.None {
		t.Errorf("recycled run's base frame leaked: ready=%v base=%d callDst=%v", f.ready, f.base, f.callDst)
	}
}

func TestFramePoolNoContamination(t *testing.T) {
	f := getFrameSB(50, 2)
	f.setReady(1, 99)
	f.setReady(2, 100)
	putFrameSB(f)

	got := getFrameSB(7, ir.None)
	if len(got.ready) != 0 || got.readyAt(1) != 0 || got.readyAt(2) != 0 {
		t.Errorf("recycled frame leaked register readiness: %v", got.ready)
	}
	// A register written past the recycled length must not surface a
	// stale value from the backing array.
	got.setReady(3, 5)
	if got.readyAt(1) != 0 || got.readyAt(2) != 0 {
		t.Errorf("growing a recycled frame exposed stale readiness: %v", got.ready)
	}
	if got.base != 7 || got.callDst != ir.None {
		t.Errorf("getFrameSB did not apply requested state: base=%d callDst=%v", got.base, got.callDst)
	}
}

// TestSimulateAllocBudget is the allocation-budget regression test for
// the simulator's scoreboard path: with the run and frame pools warm,
// re-simulating a fixed trace must stay within a small per-epoch
// allocation budget rather than reallocating five maps per epoch. See
// docs/perf.md for the budget rationale.
func TestSimulateAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := newSynthProg()
	epochs := make([][]trace.Event, 8)
	for i := range epochs {
		evs := filler(p, 50)
		evs = append(evs, mkEvent(p, ir.Store, 0x20000+int64(i)*256, int64(i), ir.None, 0, 1))
		epochs[i] = evs
	}
	tr := synthTrace(p, epochs...)
	run := func() { Simulate(Input{Trace: tr, Policy: PolicyU()}) }
	run() // warm the pools

	const budget = 120 // per simulation of 8 epochs: machine + result + pool misses
	allocs := testing.AllocsPerRun(50, run)
	if allocs > budget {
		t.Errorf("simulating 8 epochs allocates %.0f objects/run, budget %d — the scoreboard pools regressed (see docs/perf.md)", allocs, budget)
	}
}

// TestSimulateAllocsPerEvent is the per-event allocation budget on a
// real workload trace, whose events read registers, call functions,
// wait and signal. m88ksim squashes ~1,500 epochs under both policies
// measured here: U on the base binary and compiler synchronization (C)
// on the ref binary, so restarts and the sync paths are covered too.
// With the pools warm, a simulation's allocations are per-machine setup
// and pool misses, independent of trace length: well under one per
// thousand events. An allocation on the per-event path (such as a
// register-use slice built per issue attempt) shows up as one or more
// per event. See docs/perf.md.
func TestSimulateAllocsPerEvent(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, err := workloads.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Compile(core.Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42}.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	compiler := PolicyC("C")
	compiler.CompilerMarks = memsync.SyncedLoadOrigins(b.Ref)
	for _, c := range []struct {
		bin *ir.Program
		pol Policy
	}{{b.Base, PolicyU()}, {b.Ref, compiler}} {
		tr, err := b.Trace(c.bin, w.Ref)
		if err != nil {
			t.Fatal(err)
		}
		run := func() { Simulate(Input{Trace: tr, Policy: c.pol}) }
		run() // warm the pools
		const budget = 0.001
		perEvent := testing.AllocsPerRun(3, run) / float64(tr.Events())
		t.Logf("policy %s: %d events, %.5f allocs/event", c.pol.Name, tr.Events(), perEvent)
		if perEvent > budget {
			t.Errorf("policy %s: simulating %d events allocates %.4f objects/event, budget %.3f — the per-event path allocates (see docs/perf.md)",
				c.pol.Name, tr.Events(), perEvent, budget)
		}
		tr.Release()
	}
}
