package tlssync

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tlssync/internal/jobs"
	"tlssync/internal/parallel"
	"tlssync/internal/report"
	"tlssync/internal/sim"
)

// This file regenerates each of the paper's figures and tables. Every
// experiment takes prepared Runs (so callers can reuse compilations
// across figures) and returns both structured rows and rendered text.

// Figure is a rendered experiment with its structured data.
type Figure struct {
	ID    string
	Title string
	Rows  []report.Row
	Text  string
}

// PrepareAllJ prepares the paper's 15 benchmarks with PrepareWorkloads.
//
// Deprecated: buildWorkers is ignored; each build runs serially and
// its artifacts were identical at any value. Call
// PrepareWorkloads(ctx, eng, Benchmarks(), progress).
func PrepareAllJ(ctx context.Context, eng *jobs.Engine, buildWorkers int, progress func(bench string, d time.Duration, err error)) ([]*Run, error) {
	return PrepareWorkloads(ctx, eng, Benchmarks(), progress)
}

// PrepareWorkloads compiles and baselines a workload set — the paper's
// benchmarks (Benchmarks), a subset, or progen-generated synthetic
// workloads (SynthBenchmarks) — as one job per workload on eng, so the
// engine's pool bounds the parallelism and concurrent callers preparing
// the same workload coalesce. progress (optional) is invoked once per
// completed workload. When several workloads fail, the error is the
// first one's in ws order.
func PrepareWorkloads(ctx context.Context, eng *jobs.Engine, ws []*Workload, progress func(bench string, d time.Duration, err error)) ([]*Run, error) {
	runs := make([]*Run, len(ws))
	err := fanOut(ctx, len(ws), func(i int) error {
		w := ws[i]
		start := time.Now() //lint:ignore D001 progress-callback latency only; never reaches artifact bytes
		val, err := eng.Do(ctx, "prepare/"+w.Name, func(context.Context) (any, error) {
			return NewRun(w)
		})
		if progress != nil {
			//lint:ignore D001 progress-callback latency only; never reaches artifact bytes
			progress(w.Name, time.Since(start), err)
		}
		if err != nil {
			return err
		}
		runs[i] = val.(*Run)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// fanOut waits on n engine jobs at once, one goroutine each (the engine
// pool bounds the work), and returns the lowest-index error. fn must
// wait under the caller's ctx, not the ctx parallel.Map hands out: that
// one is cancelled by a sibling's failure, which would turn a
// lower-index job's real error into context.Canceled.
func fanOut(ctx context.Context, n int, fn func(i int) error) error {
	return parallel.Map(ctx, n, n, func(_ context.Context, i int) error { return fn(i) })
}

// experiment declares one figure or table once: its title, the
// simulations it needs per benchmark, and how it renders their results.
// SpecsFor, Prewarm and the renderer all read the same specs, so a
// prewarmed experiment renders from cached results alone.
type experiment struct {
	id     string
	title  string
	specs  func(r *Run) []SimSpec
	render func(f *Figure, runs []*Run, out [][]outcome)
}

// outcome is one spec's simulation result.
type outcome struct {
	spec SimSpec
	res  *sim.Result
}

// experiments lists every figure and table in presentation order.
var experiments = []experiment{
	{"2", "Figure 2: potential performance impact of perfect memory-resident value communication\n" +
		"U = TLS baseline, O = no memory violations and no memory sync stalls",
		labels("U", "O"), renderBars},
	{"6", "Figure 6: perfect prediction of loads above dependence-frequency thresholds\n" +
		"U = none; F25/F15/F5 = loads violating in >25%/>15%/>5% of epochs predicted perfectly",
		fig6Specs, renderBars},
	// Figure 7 is a pure profile analysis: it simulates nothing.
	{"7", "Dependence distance distribution (per §2.4)", labels(), renderFig7},
	{"8", "Figure 8: compiler-inserted synchronization of memory-resident values\n" +
		"U = baseline; T = profiled on train input; C = profiled on ref input",
		labels("U", "T", "C"), renderBars},
	{"9", "Figure 9: sensitivity to the cost of synchronization\n" +
		"C = compiler sync; E = perfect prediction of synchronized values; L = stall until previous epoch completes",
		labels("C", "E", "L"), renderBars},
	{"10", "Figure 10: compiler-inserted vs hardware-inserted synchronization\n" +
		"U = baseline; P = hw value prediction; H = hw sync (periodic reset); C = compiler sync; B = hybrid",
		labels("U", "P", "H", "C", "B"), renderBars},
	{"11", "Figure 11: violated loads classified by synchronizing scheme",
		fig11Specs, renderTable([]string{"benchmark", "mode", "violations", "neither", "comp-only", "hw-only", "both"}, fig11Rows)},
	{"12", "Figure 12: whole-program speedup over sequential execution",
		labels("U", "C", "H", "B"), renderTable([]string{"benchmark", "coverage", "U", "C", "H", "B"}, fig12Rows)},
	{"T2", "Table 2: region coverage and speedups (relative to sequential execution)",
		labels("C", "B"), renderTable([]string{"benchmark", "coverage",
			"region C", "region B", "seq C", "seq B", "program C", "program B"}, table2Rows)},
}

// Experiments maps figure/table IDs to their runners.
var Experiments = func() map[string]func([]*Run) (*Figure, error) {
	m := make(map[string]func([]*Run) (*Figure, error), len(experiments))
	for i := range experiments {
		m[experiments[i].id] = experiments[i].run
	}
	return m
}()

// ExperimentIDs lists the experiment identifiers in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Fig8 regenerates Figure 8: U vs T (train-input profile) vs C
// (ref-input profile).
func Fig8(runs []*Run) (*Figure, error) { return Experiments["8"](runs) }

// Fig10 regenerates Figure 10, compiler- vs hardware-inserted
// synchronization: U, P (hw value prediction), H (hw sync), C (compiler
// sync), B (hybrid).
func Fig10(runs []*Run) (*Figure, error) { return Experiments["10"](runs) }

// Fig11 regenerates Figure 11: violating loads classified by which
// scheme would have synchronized them.
func Fig11(runs []*Run) (*Figure, error) { return Experiments["11"](runs) }

// Table2 regenerates Table 2: region coverage plus region, sequential
// and program speedups for the compiler-only and hybrid configurations.
func Table2(runs []*Run) (*Figure, error) { return Experiments["T2"](runs) }

// run simulates (or reads from the Run's cache) every spec the
// experiment needs on each run, then renders the figure.
func (e *experiment) run(runs []*Run) (*Figure, error) {
	f := &Figure{ID: e.id, Title: e.title}
	out := make([][]outcome, len(runs))
	for i, r := range runs {
		for _, sp := range e.specs(r) {
			res, err := r.SimulateSpec(sp)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", r.W.Name, sp.Label, err)
			}
			out[i] = append(out[i], outcome{sp, res})
		}
	}
	e.render(f, runs, out)
	return f, nil
}

// labels returns a spec builder for plain label-driven simulations.
func labels(ls ...string) func(*Run) []SimSpec {
	return func(r *Run) []SimSpec {
		out := make([]SimSpec, len(ls))
		for i, l := range ls {
			out[i] = r.LabelSpec(l)
		}
		return out
	}
}

// fig6Specs is the threshold study: U plus oracle policies that
// perfectly predict every load violating in more than 25%, 15% and 5%
// of epochs.
func fig6Specs(r *Run) []SimSpec {
	specs := []SimSpec{r.LabelSpec("U")}
	for _, th := range []struct {
		label string
		frac  float64
	}{{"F25", 0.25}, {"F15", 0.15}, {"F5", 0.05}} {
		set := make(map[int]bool)
		//lint:ignore D001 set union across regions — membership is order-free
		for _, rp := range r.Build.RefProfile.Regions {
			for id := range rp.LoadsAboveThreshold(th.frac) {
				set[id] = true
			}
		}
		specs = append(specs, SimSpec{Run: r, Label: "fig6-" + th.label,
			Policy: sim.Policy{Name: th.label, OracleLoads: set}})
	}
	return specs
}

// fig11Specs returns Figure 11's four stall modes (U: stall for nothing,
// C: compiler marks, H: hardware table, B: both). Stall-for-compiler
// modes run the transformed binary; the others run the baseline binary
// but keep the compiler marks.
func fig11Specs(r *Run) []SimSpec {
	marks := r.CompilerMarks()
	return []SimSpec{
		{Run: r, Label: "fig11-U", Binary: "base", Policy: sim.Policy{Name: "U", CompilerMarks: marks}},
		{Run: r, Label: "fig11-C", Binary: "ref", Policy: sim.Policy{Name: "C", CompilerMarks: marks}},
		{Run: r, Label: "fig11-H", Binary: "base", Policy: sim.Policy{Name: "H", HWSync: true, CompilerMarks: marks}},
		{Run: r, Label: "fig11-B", Binary: "ref", Policy: sim.Policy{Name: "B", HWSync: true, CompilerMarks: marks}},
	}
}

// renderBars draws one normalized bar per spec, labelled with its
// policy name.
func renderBars(f *Figure, runs []*Run, out [][]outcome) {
	for i, r := range runs {
		row := report.Row{Bench: r.W.Label}
		for _, o := range out[i] {
			row.Bars = append(row.Bars, r.Bar(o.spec.Policy.Name, o.res))
		}
		f.Rows = append(f.Rows, row)
	}
	f.Text = report.RenderBars(f.Title, f.Rows, 50)
}

// renderTable returns a renderer for a text table: header, then the
// rows rowsFor derives from each benchmark's outcomes.
func renderTable(header []string, rowsFor func(r *Run, out []outcome) [][]string) func(*Figure, []*Run, [][]outcome) {
	return func(f *Figure, runs []*Run, out [][]outcome) {
		rows := [][]string{header}
		for i, r := range runs {
			rows = append(rows, rowsFor(r, out[i])...)
		}
		f.Text = f.Title + "\n\n" + report.Table(rows)
	}
}

func fig11Rows(r *Run, out []outcome) [][]string {
	var rows [][]string
	for _, o := range out {
		b := o.res.ViolBuckets
		rows = append(rows, []string{
			r.W.Label, o.spec.Policy.Name,
			fmt.Sprintf("%d", b[0]+b[1]+b[2]+b[3]),
			fmt.Sprintf("%d", b[sim.BucketNeither]),
			fmt.Sprintf("%d", b[sim.BucketCompiler]),
			fmt.Sprintf("%d", b[sim.BucketHardware]),
			fmt.Sprintf("%d", b[sim.BucketBoth]),
		})
	}
	return rows
}

func fig12Rows(r *Run, out []outcome) [][]string {
	cells := []string{r.W.Label, report.Pct(r.Coverage())}
	for _, o := range out {
		cells = append(cells, report.F2(r.ProgramSpeedup(o.res)))
	}
	return [][]string{cells}
}

func table2Rows(r *Run, out []outcome) [][]string {
	c, b := out[0].res, out[1].res
	return [][]string{{
		r.W.Label, report.Pct(r.Coverage()),
		report.F2(r.RegionSpeedup(c)), report.F2(r.RegionSpeedup(b)),
		report.F2(r.SeqRegionSpeedup(c)), report.F2(r.SeqRegionSpeedup(b)),
		report.F2(r.ProgramSpeedup(c)), report.F2(r.ProgramSpeedup(b)),
	}}
}

// renderFig7 draws the dependence distance distribution (paper §2.4:
// most frequent dependences are between consecutive epochs).
func renderFig7(f *Figure, runs []*Run, _ [][]outcome) {
	var sb strings.Builder
	sb.WriteString(f.Title + "\n\n")
	agg := make(map[int]int)
	for _, r := range runs {
		h := make(map[int]int)
		//lint:ignore D001 integer histogram accumulation (+=) is commutative across regions
		for _, rp := range r.Build.RefProfile.Regions {
			for d, n := range rp.DistanceHistogram() {
				h[d] += n
				agg[d] += n
			}
		}
		if len(h) == 0 {
			fmt.Fprintf(&sb, "%s: no inter-epoch dependences\n", r.W.Label)
			continue
		}
		sb.WriteString(report.Histogram(r.W.Label, h, 30))
	}
	sb.WriteString("\n")
	sb.WriteString(report.Histogram("ALL BENCHMARKS", agg, 40))
	f.Text = sb.String()
}

// SimSpec is one (benchmark × policy) simulation unit: the granularity
// at which figure regeneration fans out across the job engine.
type SimSpec struct {
	Run    *Run
	Label  string     // result-cache label (unique per distinct policy)
	Policy sim.Policy // the policy to simulate
	Binary string     // "" = the binary the label selects; else base/train/ref
}

// Key returns the job-engine coalescing key for the spec.
func (sp SimSpec) Key() string { return "simulate/" + sp.Run.W.Name + "/" + sp.Label }

// SimulateSpec runs (and caches under sp.Label) one spec on its Run,
// on sp.Binary or else the binary the label selects. Every simulation
// of a Run goes through here, so each one is timed under stage "sim".
func (r *Run) SimulateSpec(sp SimSpec) (*sim.Result, error) {
	if res, ok := r.cachedResult(sp.Label); ok {
		return res, nil
	}
	binary := sp.Binary
	if binary == "" {
		binary = r.binaryFor(sp.Label)
	}
	tr, err := r.traceFor(binary)
	if err != nil {
		return nil, err
	}
	start := time.Now() //lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	res := sim.Simulate(sim.Input{Trace: tr, Policy: sp.Policy})
	//lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	r.noteStage("sim", time.Since(start))
	return r.storeResult(sp.Label, res), nil
}

// LabelSpec returns the spec for a plain label-driven simulation
// (policy and binary both derived from the label). Every submitter of a
// named-policy job — Prewarm and the tlsd /simulate handler alike —
// must go through a SimSpec so identical work shares one engine key AND
// one result shape (*sim.Result); ad-hoc keys with a different return
// type would make coalesced joins type-unsafe.
func (r *Run) LabelSpec(label string) SimSpec {
	return SimSpec{Run: r, Label: label, Policy: r.policyFor(label)}
}

// SpecsFor returns every simulation the experiment needs over the given
// runs, one SimSpec per (benchmark × policy) pair, in rendering order.
// Fig7 (a pure profile analysis) and unknown ids need none.
func SpecsFor(id string, runs []*Run) []SimSpec {
	var specs []SimSpec
	for i := range experiments {
		if e := &experiments[i]; e.id == id {
			for _, r := range runs {
				specs = append(specs, e.specs(r)...)
			}
		}
	}
	return specs
}

// Prewarm fans every simulation the listed experiments need out through
// the job engine at (benchmark × policy) granularity, deduplicating
// specs shared between experiments. After Prewarm, the experiment
// functions assemble their figures entirely from cached results.
// progress (optional) is invoked once per completed pair. When several
// specs fail, the error is the first one's in spec order.
func Prewarm(ctx context.Context, eng *jobs.Engine, runs []*Run, ids []string,
	progress func(bench, label string, d time.Duration, err error)) error {
	seen := make(map[string]bool)
	var specs []SimSpec
	for _, id := range ids {
		for _, sp := range SpecsFor(id, runs) {
			if key := sp.Key(); !seen[key] {
				seen[key] = true
				specs = append(specs, sp)
			}
		}
	}
	// A dead caller (deadline, disconnect) stops the fan-out instead of
	// submitting the rest of the specs only for each to fail the same way.
	return fanOut(ctx, len(specs), func(i int) error {
		sp := specs[i]
		start := time.Now() //lint:ignore D001 progress-callback latency only; never reaches artifact bytes
		_, err := eng.Do(ctx, sp.Key(), func(jctx context.Context) (any, error) {
			if err := jctx.Err(); err != nil {
				return nil, err
			}
			return sp.Run.SimulateSpec(sp)
		})
		if progress != nil {
			//lint:ignore D001 progress-callback latency only; never reaches artifact bytes
			progress(sp.Run.W.Name, sp.Label, time.Since(start), err)
		}
		return err
	})
}
