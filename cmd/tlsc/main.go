// Command tlsc compiles a MiniC program with the TLS pipeline and
// simulates it under one or more value-communication policies.
//
// Usage:
//
//	tlsc [-policy U,C,H,B] [-input 1,2,3] [-seed 42] [-dump] prog.mc
//	tlsc -bench parser -policy U,C     # run a built-in benchmark instead
//
// With -dump, the transformed IR of the ref-profiled binary is printed
// instead of simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"tlssync"
	"tlssync/internal/memsync"
	"tlssync/internal/parallel"
	"tlssync/internal/sim"
	"tlssync/internal/verify"
)

func main() {
	policies := flag.String("policy", "U,C", "comma-separated policies (U,O,T,C,E,L,H,P,B)")
	inputStr := flag.String("input", "", "comma-separated input vector for input(i)")
	seed := flag.Uint64("seed", 42, "PRNG seed for rnd(n)")
	dump := flag.Bool("dump", false, "print the transformed IR instead of simulating")
	verifyFlag := flag.Bool("verify", false, "statically verify synchronization soundness of every binary and exit (non-zero on findings); with -dump, annotate the IR with the diagnostics")
	timeline := flag.Int("timeline", 0, "render an epoch-lifetime timeline for the first N epochs of each policy")
	benchName := flag.String("bench", "", "run a built-in benchmark instead of a source file")
	jFlag := flag.Int("j", runtime.NumCPU(), "max policies simulated concurrently (output is identical at any -j)")
	flag.Parse()

	var src string
	var train, ref []int64
	switch {
	case *benchName != "":
		w, err := tlssync.Benchmark(*benchName)
		if err != nil {
			fatal(err)
		}
		src, train, ref = w.Source, w.Train, w.Ref
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
		ref = parseInput(*inputStr)
		train = ref
	default:
		flag.Usage()
		os.Exit(2)
	}
	if len(ref) == 0 {
		ref = []int64{1, 2, 3}
		train = ref
	}

	cfg := tlssync.Config{
		Source: src, TrainInput: train, RefInput: ref, Seed: *seed,
	}
	if *verifyFlag {
		// Report findings instead of failing the compile, so the user
		// sees the full diagnostic list (and the annotated IR).
		cfg.Verify = verify.ModeWarn
	}
	b, err := tlssync.Compile(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("regions: %d accepted of %d candidates\n", len(b.AcceptedKeys()), len(b.Decisions))
	for _, d := range b.Decisions {
		status := "accepted"
		if !d.Accepted {
			status = "rejected: " + d.Reason
		}
		fmt.Printf("  loop %s/b%d: %s (coverage %.2f%%, %.1f epochs/instance, %.1f instrs/epoch, unroll x%d)\n",
			d.Key.Func, d.Key.Block, status, 100*d.Coverage, d.EpochsPerInst, d.InstrsPerEpoch, d.UnrollFactor)
	}
	for _, info := range b.MemInfoRef {
		fmt.Print(memsync.Summary(info))
	}

	if *dump || *verifyFlag {
		if *dump {
			if *verifyFlag {
				fmt.Println(verify.Annotate(b.Ref, b.VerifyReports["ref"]))
			} else {
				fmt.Println(b.Ref.String())
			}
		}
		if *verifyFlag {
			failed := false
			for _, name := range []string{"plain", "base", "train", "ref"} {
				rep := b.VerifyReports[name]
				fmt.Println(rep)
				if !rep.Clean() {
					failed = true
				}
			}
			if failed {
				os.Exit(1)
			}
		}
		return
	}

	w := &tlssync.Workload{Name: "input", Label: "INPUT", Source: src, Train: train, Ref: ref,
		Character: "user program", PaperCoverage: 1, Expect: "?"}
	run, err := tlssync.NewRun(w)
	if err != nil {
		fatal(err)
	}
	var labels []string
	for _, p := range strings.Split(*policies, ",") {
		if p = strings.TrimSpace(p); p != "" {
			labels = append(labels, p)
		}
	}
	// Simulate every requested policy concurrently; the print loop below
	// then reads memoized results in the order the user listed them.
	if err := parallel.Map(context.Background(), *jFlag, len(labels),
		func(_ context.Context, i int) error {
			_, err := run.Simulate(labels[i])
			return err
		}); err != nil {
		fatal(err)
	}
	fmt.Printf("\nsequential: region=%d cycles, program=%d cycles, coverage=%.1f%%\n\n",
		run.SeqRegion, run.SeqProgram, 100*run.Coverage())
	for _, p := range labels {
		res, err := run.Simulate(p)
		if err != nil {
			fatal(err)
		}
		bar := run.Bar(p, res)
		fmt.Printf("%-2s region time %6.1f (busy %.1f fail %.1f sync %.1f other %.1f)  "+
			"region speedup %.2f  program speedup %.2f  violations %d\n",
			p, bar.Total(), bar.Busy, bar.Fail, bar.Sync, bar.Other,
			run.RegionSpeedup(res), run.ProgramSpeedup(res), res.Violations)
		if *timeline > 0 {
			tlRes, err := run.SimulateTimeline(p)
			if err != nil {
				fatal(err)
			}
			fmt.Print(sim.Timeline(tlRes.Spans, 0, *timeline, 64))
		}
	}
}

func parseInput(s string) []int64 {
	if s == "" {
		return nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad input element %q: %w", part, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlsc:", err)
	os.Exit(1)
}
