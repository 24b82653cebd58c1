package tlssync

import (
	"context"
	"strings"
	"sync"
	"testing"

	"tlssync/internal/jobs"
	"tlssync/internal/sim"
)

// TestConcurrentSimulate hammers one Run from many goroutines — every
// policy label several times over — and checks that all callers of a
// label observe the same cached result. Run under -race (the Makefile
// race target) this verifies the Run-level trace/result caches are safe
// for the (benchmark × policy) fan-out.
func TestConcurrentSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates a benchmark")
	}
	w, err := Benchmark("gzip_comp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}

	labels := []string{"U", "O", "T", "C", "E", "L", "H", "P", "B"}
	const callersPerLabel = 4
	results := make([][]*sim.Result, len(labels))
	for i := range results {
		results[i] = make([]*sim.Result, callersPerLabel)
	}
	var wg sync.WaitGroup
	for i, l := range labels {
		for c := 0; c < callersPerLabel; c++ {
			wg.Add(1)
			go func(i, c int, l string) {
				defer wg.Done()
				res, err := r.Simulate(l)
				if err != nil {
					t.Errorf("%s: %v", l, err)
					return
				}
				results[i][c] = res
			}(i, c, l)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, l := range labels {
		for c := 1; c < callersPerLabel; c++ {
			if results[i][c] != results[i][0] {
				// Concurrent first computations may race benignly, but all
				// callers must converge on one cached *Result.
				t.Errorf("%s: caller %d got a different result pointer", l, c)
			}
		}
	}
}

// TestPrewarmMatchesSequential: fanning a figure out through the job
// engine yields exactly the figure the sequential path produces.
func TestPrewarmMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates benchmarks")
	}
	prep := func() []*Run {
		var runs []*Run
		for _, name := range []string{"gzip_comp", "mcf"} {
			w, err := Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRun(w)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		return runs
	}

	warm := prep()
	eng := jobs.New(4)
	if err := Prewarm(context.Background(), eng, warm, []string{"10"}, nil); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if want := int64(2 * 5); st.Submitted != want { // 2 benchmarks × 5 policies
		t.Fatalf("submitted = %d, want %d", st.Submitted, want)
	}
	figWarm, err := Fig10(warm)
	if err != nil {
		t.Fatal(err)
	}

	figSeq, err := Fig10(prep())
	if err != nil {
		t.Fatal(err)
	}
	if figWarm.Text != figSeq.Text {
		t.Fatalf("prewarmed figure differs from sequential:\n%s\nvs\n%s", figWarm.Text, figSeq.Text)
	}
}

// TestSpecsForCoverAllExperiments pins each experiment's spec labels,
// in order: perfbench's figures layers and their percentiles follow
// that order, and the labels are the result-cache keys.
func TestSpecsForCoverAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a benchmark")
	}
	w, err := Benchmark("gzip_comp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	runs := []*Run{r}
	want := map[string]string{
		"2":  "U O",
		"6":  "U fig6-F25 fig6-F15 fig6-F5",
		"7":  "",
		"8":  "U T C",
		"9":  "C E L",
		"10": "U P H C B",
		"11": "fig11-U fig11-C fig11-H fig11-B",
		"12": "U C H B",
		"T2": "C B",
	}
	if got := strings.Join(ExperimentIDs(), " "); got != "2 6 7 8 9 10 11 12 T2" {
		t.Errorf("ExperimentIDs() = %s", got)
	}
	for _, id := range ExperimentIDs() {
		var labels []string
		for _, sp := range SpecsFor(id, runs) {
			labels = append(labels, sp.Label)
		}
		if got := strings.Join(labels, " "); got != want[id] {
			t.Errorf("SpecsFor(%q) labels = %q, want %q", id, got, want[id])
		}
	}
	if specs := SpecsFor("99", runs); specs != nil {
		t.Errorf("SpecsFor(unknown) = %d specs, want none", len(specs))
	}
}

// TestPrewarmedExperimentsRenderWithoutSimulating: Prewarm and the
// renderers read the same experiment table, so once every experiment is
// prewarmed, rendering them all runs no simulation.
func TestPrewarmedExperimentsRenderWithoutSimulating(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates a benchmark")
	}
	w, err := Benchmark("gzip_comp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	runs := []*Run{r}
	if err := Prewarm(context.Background(), jobs.New(2), runs, ExperimentIDs(), nil); err != nil {
		t.Fatal(err)
	}
	r.ConsumeStageTimes()
	for _, id := range ExperimentIDs() {
		if _, err := Experiments[id](runs); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if d, ok := r.ConsumeStageTimes()["sim"]; ok {
		t.Errorf("rendering prewarmed experiments simulated for %v", d)
	}
}

// TestPrepareWorkloadsReportsFirstError: when several workloads fail,
// PrepareWorkloads reports the first one's error in input order, not
// whichever failed first. The slow failure (a full compile that selects
// no region) comes first; the fast one (a parse error) second.
func TestPrepareWorkloadsReportsFirstError(t *testing.T) {
	ws := []*Workload{
		{Name: "no-region", Source: "func main() { var i int; var s int; for i = 0; i < 20000; i = i + 1 { s = s + i; } print(s); }"},
		{Name: "parse-error", Source: "func main( {"},
	}
	for iter := 0; iter < 5; iter++ {
		_, err := PrepareWorkloads(context.Background(), jobs.New(2), ws, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "no-region: ") {
			t.Fatalf("iteration %d: err = %v, want the no-region workload's error", iter, err)
		}
	}
}
