package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/memsync"
	"tlssync/internal/progen"
	"tlssync/internal/sim"
)

// The pipeline's byte-reproducibility invariant: compiling the same
// program twice yields the same artifacts, even when the two compiles
// run at once and share the process-wide pools (trace event buffers,
// IR arenas, interpreter memory). This suite compiles each generated
// program twice concurrently and compares a fingerprint covering
// everything the pipeline emits — the four binaries' printed IR, region
// decisions, memsync summaries, verifier reports, the simulated results
// of every policy-relevant binary, and the sequential baseline. Run it
// under -race to also catch unsynchronized sharing through the pools.

// diffConfig is the canonical compile configuration for seed programs.
func diffConfig(src string) core.Config {
	return core.Config{
		Source:     src,
		TrainInput: []int64{2, 7, 1},
		RefInput:   []int64{3, 1, 4, 1, 5},
		Seed:       42,
		MaxSteps:   2_000_000,
	}
}

// buildFingerprint renders every observable output of a compile (and
// of the simulations downstream of it) into one byte string.
func buildFingerprint(cfg core.Config) (string, error) {
	var sb strings.Builder
	b, err := core.Compile(cfg)
	if err != nil {
		// Errors must be deterministic too.
		return "compile error: " + err.Error(), nil
	}

	fmt.Fprintf(&sb, "== plain ==\n%s\n== base ==\n%s\n== train ==\n%s\n== ref ==\n%s\n",
		b.Plain, b.Base, b.Train, b.Ref)
	fmt.Fprintf(&sb, "== decisions ==\n%+v\n", b.Decisions)
	for _, r := range b.MemInfoTrain {
		fmt.Fprintf(&sb, "memsync train: %s\n", memsync.Summary(r))
	}
	for _, r := range b.MemInfoRef {
		fmt.Fprintf(&sb, "memsync ref: %s\n", memsync.Summary(r))
	}
	for _, name := range []string{"plain", "base", "train", "ref"} {
		if rep := b.VerifyReports[name]; rep != nil {
			fmt.Fprintf(&sb, "== verify %s ==\n%s\n", name, rep)
		}
	}

	// Downstream: trace each binary and simulate the policies that read
	// it, plus the sequential baseline off the plain trace.
	plainTr, err := b.Trace(b.Plain, cfg.RefInput)
	if err != nil {
		return "", fmt.Errorf("plain trace: %w", err)
	}
	seq := sim.SimulateSequentialRegions(sim.Input{Trace: plainTr})
	sj, err := json.Marshal(seq)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "== seq ==\n%s\n", sj)

	for _, pc := range []struct {
		binary string
		pol    sim.Policy
	}{
		{"base", sim.PolicyU()},
		{"train", sim.PolicyC("T")},
		{"ref", sim.PolicyC("C")},
		{"ref", sim.PolicyE()},
	} {
		p := b.Base
		switch pc.binary {
		case "train":
			p = b.Train
		case "ref":
			p = b.Ref
		}
		tr, err := b.Trace(p, cfg.RefInput)
		if err != nil {
			return "", fmt.Errorf("%s trace: %w", pc.binary, err)
		}
		res := sim.Simulate(sim.Input{Trace: tr, Policy: pc.pol})
		rj, err := json.Marshal(res)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "== sim %s/%s ==\n%s\n", pc.binary, pc.pol.Name, rj)
	}
	return sb.String(), nil
}

func TestParallelDiffDeterministic(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			src := progen.Generate(uint64(seed), progen.DefaultConfig())
			var fps [2]string
			var errs [2]error
			var wg sync.WaitGroup
			for i := range fps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fps[i], errs[i] = buildFingerprint(diffConfig(src))
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if fps[0] != fps[1] {
				t.Errorf("two concurrent compiles diverged\n--- first difference ---\n%s",
					firstDiff(fps[0], fps[1]))
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n first: %s\nsecond: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}
