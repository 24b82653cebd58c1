// Command tlsbench regenerates the paper's figures and tables over the 15
// re-created benchmarks. Compilation and simulation fan out through the
// job engine at (benchmark × policy) granularity, bounded by -j.
//
// Usage:
//
//	tlsbench                    # all figures and tables, all benchmarks
//	tlsbench -fig 8             # one figure
//	tlsbench -table 1           # Table 1 (simulation parameters)
//	tlsbench -table 2           # Table 2 (coverage and speedups)
//	tlsbench -bench gzip_comp   # restrict to one benchmark
//	tlsbench -j 4               # bound simulation parallelism
//	tlsbench -synth 4 -seed 7   # run over 4 seeded synthetic workloads
//
// With -synth N the benchmark set is replaced by N progen-generated
// synthetic workloads derived deterministically from -seed: the same
// (seed, N) always selects the same programs, so synthetic results are
// as reproducible as the paper set's.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"tlssync"
	"tlssync/internal/jobs"
	"tlssync/internal/report"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (2, 6, 7, 8, 9, 10, 11, 12); empty = all")
	table := flag.String("table", "", "table to regenerate (1 or 2)")
	bench := flag.String("bench", "", "restrict to one benchmark by name")
	format := flag.String("format", "text", "output format for bar figures: text or csv")
	workers := flag.Int("j", runtime.NumCPU(), "max concurrent compilations/simulations")
	quiet := flag.Bool("q", false, "suppress per-(benchmark, policy) progress on stderr")
	seed := flag.Uint64("seed", 1, "root seed for -synth workload generation")
	synth := flag.Int("synth", 0, "replace the benchmark set with this many seeded synthetic workloads")
	flag.Parse()

	ids, table1, err := selectExperiments(*fig, *table, *format)
	if err != nil {
		fatal(err)
	}
	if table1 {
		fmt.Print(tlssync.MachineTable1())
		return
	}

	ws := tlssync.Benchmarks()
	switch {
	case *synth > 0 && *bench != "":
		fatal(fmt.Errorf("-bench and -synth are mutually exclusive"))
	case *synth > 0:
		ws = tlssync.SynthBenchmarks(*seed, *synth)
	case *bench != "":
		w, err := tlssync.Benchmark(*bench)
		if err != nil {
			fatal(err)
		}
		ws = []*tlssync.Workload{w}
	}

	progress := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	ctx := context.Background()
	eng := jobs.New(*workers)
	progress("compiling and baselining %d workloads (-j %d)...\n", len(ws), eng.Workers())
	runs, err := tlssync.PrepareWorkloads(ctx, eng, ws, func(bench string, d time.Duration, err error) {
		if err == nil {
			progress("prepared %-24s %8s\n", bench, d.Round(time.Millisecond))
		}
	})
	if err != nil {
		fatal(err)
	}

	// Fan every needed (benchmark × policy) simulation out through the
	// engine; the figures below then assemble from cached results.
	total := countSpecs(ids, runs)
	var done atomic.Int64
	err = tlssync.Prewarm(ctx, eng, runs, ids, func(bench, label string, d time.Duration, err error) {
		if err == nil {
			progress("simulated %-12s %-10s %8s  [%d/%d]\n",
				bench, label, d.Round(time.Millisecond), done.Add(1), total)
		}
	})
	if err != nil {
		fatal(err)
	}

	for _, id := range ids {
		f, err := tlssync.Experiments[id](runs)
		if err != nil {
			fatal(err)
		}
		if *format == "csv" && len(f.Rows) > 0 {
			fmt.Print(report.CSV(f.Rows))
			continue
		}
		fmt.Println(f.Text)
	}
}

// selectExperiments turns -fig, -table and -format into the experiment
// ids to render, or table1 for the simulation parameters. It rejects a
// bad selection before anything compiles.
func selectExperiments(fig, table, format string) (ids []string, table1 bool, err error) {
	if format != "text" && format != "csv" {
		return nil, false, fmt.Errorf("unknown -format %q (text or csv)", format)
	}
	switch {
	case fig != "" && table != "":
		return nil, false, fmt.Errorf("-fig and -table are mutually exclusive")
	case table == "1":
		return nil, true, nil
	case table == "2":
		return []string{"T2"}, false, nil
	case table != "":
		return nil, false, fmt.Errorf("unknown table %q (1 or 2)", table)
	case fig == "":
		return tlssync.ExperimentIDs(), false, nil
	}
	if _, ok := tlssync.Experiments[fig]; !ok {
		return nil, false, fmt.Errorf("unknown figure %q (have %s)", fig, strings.Join(tlssync.ExperimentIDs(), " "))
	}
	return []string{fig}, false, nil
}

// countSpecs mirrors Prewarm's dedup to size the progress counter.
func countSpecs(ids []string, runs []*tlssync.Run) int {
	seen := make(map[string]bool)
	for _, id := range ids {
		for _, sp := range tlssync.SpecsFor(id, runs) {
			seen[sp.Key()] = true
		}
	}
	return len(seen)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlsbench:", err)
	os.Exit(1)
}
