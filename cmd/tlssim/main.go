// Command tlssim is the fleet-scale stress harness: it runs
// declarative YAML scenarios (internal/scenario) against real tlsd
// processes — launching the fleet, replaying a deterministic per-seed
// request schedule, injecting scheduled faults (fault-registry points
// and SIGKILLs with crash recovery), and judging the run against the
// scenario's assertions.
//
// Subcommands:
//
//	tlssim run scenarios/chaos.yaml --seed 42 [-o report.json] [-html report.html]
//	tlssim validate scenarios/*.yaml       type-check without running
//	tlssim plan scenarios/chaos.yaml       print the expanded deterministic plan
//	tlssim diff a.json b.json              compare two reports' deterministic sections
//
// Determinism: for a fixed (scenario, seed) the expanded plan — every
// client, every request, the fault timeline — is byte-identical across
// runs; the report carries its SHA-256 fingerprint and `tlssim diff`
// proves two runs replayed the same plan. Measured sections (latency,
// error counts, wall-clock) naturally vary and are excluded from the
// comparison. See docs/scenarios.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"time"

	"tlssync/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tlssim: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		usage()
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  tlssim run <scenario.yaml> [--seed N] [-o report.json] [-html report.html] [-det det.json] [-tlsd path] [-keep] [-q]
  tlssim validate <scenario.yaml>...
  tlssim plan <scenario.yaml> [--seed N] [-full]
  tlssim diff <report-a.json> <report-b.json>
`)
}

// parseMixed parses argv allowing flags and positionals to interleave
// (`tlssim run foo.yaml --seed 42` and `tlssim run --seed 42 foo.yaml`
// both work — stdlib flag alone stops at the first positional).
func parseMixed(fs *flag.FlagSet, argv []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(argv); err != nil {
			return nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return pos, nil
		}
		pos = append(pos, rest[0])
		argv = rest[1:]
	}
}

// seedFlag distinguishes "--seed 0" from "no --seed given" so the
// scenario's own seed field stays the default.
type seedFlag struct {
	set bool
	val uint64
}

func (f *seedFlag) String() string { return fmt.Sprint(f.val) }

func (f *seedFlag) Set(s string) error {
	_, err := fmt.Sscanf(s, "%d", &f.val)
	f.set = err == nil
	return err
}

func cmdRun(argv []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var seed seedFlag
	fs.Var(&seed, "seed", "run seed (default: the scenario's seed field)")
	out := fs.String("o", "", "write the full JSON report here")
	htmlOut := fs.String("html", "", "write an HTML report here")
	detOut := fs.String("det", "", "write the deterministic report section (for byte-comparison across runs)")
	tlsdBin := fs.String("tlsd", "", "tlsd binary to launch (default: $PATH, else `go build`)")
	keep := fs.Bool("keep", false, "keep the run directory (daemon logs, caches) instead of deleting it on success")
	quiet := fs.Bool("q", false, "suppress progress output")
	ready := fs.Duration("ready", 60*time.Second, "per-daemon startup/recovery readiness bound")
	pos, err := parseMixed(fs, argv)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("run: exactly one scenario file required")
	}

	sc, err := scenario.Load(pos[0])
	if err != nil {
		return err
	}
	runSeed := sc.Seed
	if seed.set {
		runSeed = seed.val
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	root, err := os.MkdirTemp("", "tlssim-"+sc.Name+"-")
	if err != nil {
		return err
	}
	bin, err := resolveTlsd(*tlsdBin, root, logf)
	if err != nil {
		os.RemoveAll(root)
		return err
	}
	logf("scenario %s, seed %d, state in %s", sc.Name, runSeed, root)

	// In cluster mode every daemon shares one peers file: each node
	// publishes its :0-assigned address there as it becomes ready, and
	// every tlsd watches it (-peersfile) to resolve the others.
	var peers *fleetPeers
	if sc.Daemons.Cluster() {
		peers = newFleetPeers(filepath.Join(root, "peers"))
	}

	rep, err := scenario.Run(sc, runSeed, scenario.RunOptions{
		StartDaemon: func(i int) (scenario.Daemon, error) {
			return startDaemon(sc, i, bin, root, peers, logf)
		},
		StartJoiner: func(i int, seedURL string) (scenario.Daemon, error) {
			return startJoiner(sc, i, bin, root, peers, seedURL, logf)
		},
		Logf:         logf,
		ReadyTimeout: *ready,
	})
	if err != nil {
		return fmt.Errorf("run failed (state kept in %s): %w", root, err)
	}

	if err := writeReports(rep, *out, *htmlOut, *detOut); err != nil {
		return err
	}
	fmt.Print(rep.Summary())

	if !rep.Pass {
		return fmt.Errorf("scenario %s FAILED (state kept in %s)", sc.Name, root)
	}
	if *keep {
		logf("state kept in %s", root)
	} else {
		os.RemoveAll(root)
	}
	return nil
}

func writeReports(rep *scenario.Report, jsonPath, htmlPath, detPath string) error {
	if jsonPath != "" {
		if err := writeTo(jsonPath, rep.WriteJSON); err != nil {
			return err
		}
	}
	if htmlPath != "" {
		if err := writeTo(htmlPath, rep.WriteHTML); err != nil {
			return err
		}
	}
	if detPath != "" {
		if err := writeTo(detPath, rep.Deterministic().WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

func writeTo(path string, render func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdValidate(argv []string) error {
	if len(argv) == 0 {
		return fmt.Errorf("validate: at least one scenario file required")
	}
	bad := 0
	for _, path := range argv {
		sc, err := scenario.Load(path)
		if err != nil {
			fmt.Printf("%s: INVALID\n  %v\n", path, err)
			bad++
			continue
		}
		fmt.Printf("%s: ok (%s: %d daemons, %d clients, %d faults, %v)\n",
			path, sc.Name, sc.Daemons.Count, sc.Fleet.Clients, len(sc.Faults), sc.Duration)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d scenario(s) invalid", bad, len(argv))
	}
	return nil
}

func cmdPlan(argv []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var seed seedFlag
	fs.Var(&seed, "seed", "plan seed (default: the scenario's seed field)")
	full := fs.Bool("full", false, "print the full expanded plan as JSON (default: a summary)")
	pos, err := parseMixed(fs, argv)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("plan: exactly one scenario file required")
	}
	sc, err := scenario.Load(pos[0])
	if err != nil {
		return err
	}
	planSeed := sc.Seed
	if seed.set {
		planSeed = seed.val
	}
	p := scenario.BuildPlan(sc, planSeed)
	if *full {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	fmt.Printf("%s  seed %d  fingerprint %s\n", p.Scenario, p.Seed, p.Fingerprint)
	fmt.Printf("  %d clients, %d requests over %v\n", len(p.Clients), p.TotalRequests(), p.Duration)
	perTemplate := p.PerTemplate()
	names := make([]string, 0, len(perTemplate))
	for name := range perTemplate {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("  template %-16s ×%d\n", name, perTemplate[name])
	}
	for _, ev := range p.Faults {
		switch ev.Kind {
		case "point":
			fmt.Printf("  fault +%-8v daemon %d  arm %s\n", ev.At, ev.Target, ev.ArmSpecString())
		case "kill":
			restart := ""
			if ev.Restart {
				restart = fmt.Sprintf("  restart after %v", ev.Delay)
			}
			fmt.Printf("  fault +%-8v daemon %d  SIGKILL%s\n", ev.At, ev.Target, restart)
		case "partition", "slow_peer":
			heal := "no heal"
			if ev.Heal > 0 {
				heal = fmt.Sprintf("heal after %v", ev.Heal)
			}
			fmt.Printf("  fault +%-8v daemon %d  %s (%s, %s)\n", ev.At, ev.Target, ev.Kind, ev.ArmSpecString(), heal)
		case "join_node":
			fmt.Printf("  fault +%-8v daemon %d  joins the cluster\n", ev.At, ev.Target)
		case "decommission_node":
			fmt.Printf("  fault +%-8v daemon %d  decommissions (drain, handoff, leave)\n", ev.At, ev.Target)
		case "rolling_restart":
			fmt.Printf("  fault +%-8v rolling restart of every node (%v pause per node)\n", ev.At, ev.Delay)
		}
	}
	return nil
}

// cmdDiff compares the deterministic sections of two run reports: it
// exits 0 iff both runs replayed the same plan (same scenario, same
// seed, same fingerprint, same assertion specs).
func cmdDiff(argv []string) error {
	if len(argv) != 2 {
		return fmt.Errorf("diff: exactly two report files required")
	}
	det := func(path string) ([]byte, *scenario.Report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var rep scenario.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		proj, err := json.Marshal(rep.Deterministic())
		return proj, &rep, err
	}
	aj, a, err := det(argv[0])
	if err != nil {
		return err
	}
	bj, b, err := det(argv[1])
	if err != nil {
		return err
	}
	if !bytes.Equal(aj, bj) {
		fmt.Printf("deterministic sections DIFFER\n  %s: scenario %s seed %d fingerprint %.16s…\n  %s: scenario %s seed %d fingerprint %.16s…\n",
			argv[0], a.Scenario.Name, a.Seed, a.Plan.Fingerprint,
			argv[1], b.Scenario.Name, b.Seed, b.Plan.Fingerprint)
		return fmt.Errorf("reports disagree on the deterministic section")
	}
	fmt.Printf("deterministic sections identical (%s, seed %d, fingerprint %.16s…)\n",
		a.Scenario.Name, a.Seed, a.Plan.Fingerprint)
	return nil
}
