// Package core is the end-to-end TLS compiler driver. It orchestrates the
// full pipeline of the paper's §3.1:
//
//  1. parse, check and lower MiniC to IR;
//  2. profile candidate loops and select speculative regions (coverage,
//     trip-count and epoch-size heuristics), unrolling small loops;
//  3. insert scalar synchronization for loop-carried register values
//     (prior work [32]), with forwarding-path scheduling;
//  4. profile inter-epoch memory dependences on the train and ref inputs;
//  5. produce memory-synchronized program variants — one per profiling
//     input — via the memsync pass (grouping, cloning, wait/signal).
//
// The Base variant (scalar sync only) is the paper's U configuration; the
// Train and Ref variants are its T and C configurations.
package core

import (
	"fmt"
	"time"

	"tlssync/internal/interp"
	"tlssync/internal/ir"
	"tlssync/internal/lang"
	"tlssync/internal/lower"
	"tlssync/internal/memsync"
	"tlssync/internal/opt"
	"tlssync/internal/profile"
	"tlssync/internal/regions"
	"tlssync/internal/scalarsync"
	"tlssync/internal/trace"
	"tlssync/internal/verify"
)

// Config configures a compilation.
type Config struct {
	// Source is the MiniC program text.
	Source string `json:"Source"`

	// TrainInput and RefInput are the two input vectors (the paper's
	// train and ref data sets). RefInput is required; TrainInput defaults
	// to RefInput.
	TrainInput []int64 `json:"TrainInput"`
	RefInput   []int64 `json:"RefInput"`

	// Seed seeds the deterministic PRNG for all runs.
	Seed uint64 `json:"Seed"`

	// Heuristics are the region-selection thresholds (zero value: paper
	// defaults).
	Heuristics regions.Heuristics `json:"Heuristics"`

	// NoScalarSchedule disables the critical-forwarding-path scheduling
	// of scalar signals (ablation knob; default on, as in the paper).
	NoScalarSchedule bool `json:"NoScalarSchedule"`

	// NoClone disables call-path cloning in the memsync pass (ablation
	// knob; default on, as in the paper).
	NoClone bool `json:"NoClone"`

	// Threshold overrides the memory-sync dependence-frequency threshold
	// (0 means the paper's 5%).
	Threshold float64 `json:"Threshold"`

	// Optimize enables the classical scalar optimizations (constant
	// folding, copy propagation, dead-code elimination) before profiling
	// and transformation — the role gcc -O3 played in the original
	// system. Off by default: the evaluation's workloads are calibrated
	// against unoptimized code, and every variant (including the
	// sequential baseline) must see the same instruction stream either
	// way.
	Optimize bool `json:"Optimize"`

	// MaxSteps bounds each functional run (0: interpreter default).
	MaxSteps int64 `json:"MaxSteps"`

	// Verify selects how the static synchronization verifier treats
	// each produced binary. The zero value is verify.ModeEnforce:
	// every compile fails closed if a binary carries a synchronization
	// soundness error. ModeWarn records findings without failing;
	// ModeOff skips verification.
	Verify verify.Mode `json:"Verify"`
}

func (c *Config) fill() {
	if c.Heuristics == (regions.Heuristics{}) {
		c.Heuristics = regions.Defaults()
	}
	if c.Threshold == 0 {
		c.Threshold = memsync.DefaultOptions().Threshold
	}
	if c.TrainInput == nil {
		c.TrainInput = c.RefInput
	}
}

func (c *Config) scalarOpts() scalarsync.Options {
	return scalarsync.Options{Schedule: !c.NoScalarSchedule}
}

func (c *Config) memOpts() memsync.Options {
	return memsync.Options{Threshold: c.Threshold, Clone: !c.NoClone}
}

// Build is a fully compiled program with its variants and profiles.
type Build struct {
	Config Config

	// Plain is the untransformed program (no unrolling, no
	// synchronization): the original sequential version all execution
	// times are normalized to.
	Plain *ir.Program

	// Base is the unrolled, scalar-synchronized program: the paper's
	// unsynchronized-memory baseline (U).
	Base *ir.Program

	// Train and Ref carry memory synchronization inserted from the
	// train-input and ref-input dependence profiles (the paper's T and C).
	Train *ir.Program
	Ref   *ir.Program

	Decisions    []regions.Decision
	ScalarInfo   []scalarsync.Result
	TrainProfile *profile.Profile
	RefProfile   *profile.Profile
	MemInfoTrain []memsync.Result
	MemInfoRef   []memsync.Result

	// VerifyReports holds the static synchronization-soundness report
	// of each produced binary, keyed "plain"/"base"/"train"/"ref"
	// (nil when Config.Verify is ModeOff).
	VerifyReports map[string]*verify.Report

	// StageTimes records wall-clock time per pipeline stage ("compile",
	// "profile") for observability; it never feeds back into artifacts.
	StageTimes map[string]time.Duration
}

// Compile runs the whole pipeline.
// Canonical returns the configuration with every default filled in —
// the exact form Compile stores into Build.Config. Content-addressed
// cache keys hash this form, so a key can be computed for a workload
// without compiling it.
func (c Config) Canonical() Config {
	c.fill()
	return c
}

func Compile(cfg Config) (*Build, error) {
	start := time.Now() //lint:ignore D001 StageTimes is observability only (excluded from artifacts and keys)
	cfg.fill()
	file, err := lang.Parse(cfg.Source)
	if err != nil {
		return nil, err
	}
	checked, err := lang.Check(file)
	if err != nil {
		return nil, err
	}
	b, err := compileChecked(checked, cfg)
	if err != nil {
		return nil, err
	}
	//lint:ignore D001 StageTimes is observability only (excluded from artifacts and keys)
	b.StageTimes["compile"] = time.Since(start) - b.StageTimes["profile"]
	return b, nil
}

func compileChecked(checked *lang.Checked, cfg Config) (*Build, error) {
	p0, err := lower.Lower(checked)
	if err != nil {
		return nil, err
	}
	b := &Build{Config: cfg, StageTimes: make(map[string]time.Duration)}
	if cfg.Optimize {
		// Optimize before the plain copy so the sequential baseline and
		// every parallel variant time the same instruction stream.
		opt.Optimize(p0)
		if err := p0.Verify(); err != nil {
			return nil, fmt.Errorf("after optimization: %w", err)
		}
	}
	// The plain copy is taken before unrolling so its block indices match
	// the region keys computed during selection.
	b.Plain = p0.DeepCopy()

	// Selection profiling: run with every candidate as a region.
	selStart := time.Now() //lint:ignore D001 StageTimes is observability only (excluded from artifacts and keys)
	selTrace, err := interp.Run(p0, interp.Options{
		Input: cfg.TrainInput, Seed: cfg.Seed, Regions: regions.Regions(p0, nil),
		MaxSteps: cfg.MaxSteps,
	})
	if err != nil {
		return nil, fmt.Errorf("selection profiling: %w", err)
	}
	selProf := profile.Analyze(selTrace)
	selTrace.Release() // the profile retains no event references
	//lint:ignore D001 StageTimes is observability only (excluded from artifacts and keys)
	b.StageTimes["profile"] += time.Since(selStart)
	b.Decisions = regions.Select(p0, selProf, cfg.Heuristics)
	if err := regions.ApplyUnrolling(p0, b.Decisions); err != nil {
		return nil, err
	}
	accepted := regions.Accepted(b.Decisions)

	// Scalar synchronization on the selected regions.
	regs := regions.Regions(p0, accepted)
	b.ScalarInfo = scalarsync.Apply(p0, regs, cfg.scalarOpts())
	if err := p0.Verify(); err != nil {
		return nil, fmt.Errorf("after scalarsync: %w", err)
	}
	b.Base = p0

	// Dependence profiling on the base binary, train before ref.
	profNames := [2]string{"train", "ref"}
	profInputs := [2][]int64{cfg.TrainInput, cfg.RefInput}
	depStart := time.Now() //lint:ignore D001 StageTimes is observability only (excluded from artifacts and keys)
	var profs [2]*profile.Profile
	for i := range profs {
		p, err := b.DepProfile(profInputs[i])
		if err != nil {
			return nil, fmt.Errorf("%s profiling: %w", profNames[i], err)
		}
		profs[i] = p
	}
	b.TrainProfile, b.RefProfile = profs[0], profs[1]
	//lint:ignore D001 StageTimes is observability only (excluded from artifacts and keys)
	b.StageTimes["profile"] += time.Since(depStart)

	// Memory-synchronized variants: each works on its own deep copy of
	// the base binary, guided by its own profile.
	var variants [2]*ir.Program
	var infos [2][]memsync.Result
	for i, prof := range profs {
		p := b.Base.DeepCopy()
		info, err := memsync.Apply(p, regions.Regions(p, accepted), prof.Regions, cfg.memOpts())
		if err != nil {
			return nil, fmt.Errorf("memsync (%s): %w", profNames[i], err)
		}
		variants[i], infos[i] = p, info
	}
	b.Train, b.MemInfoTrain = variants[0], infos[0]
	b.Ref, b.MemInfoRef = variants[1], infos[1]
	if err := b.verifyBinaries(); err != nil {
		return nil, err
	}
	return b, nil
}

// verifyBinaries runs the static synchronization verifier over every
// binary the build produced, recording the reports and — under
// ModeEnforce — failing the compile on the first binary with errors.
func (b *Build) verifyBinaries() error {
	if b.Config.Verify == verify.ModeOff {
		return nil
	}
	bins := []struct {
		name string
		p    *ir.Program
	}{
		{"plain", b.Plain}, {"base", b.Base}, {"train", b.Train}, {"ref", b.Ref},
	}
	b.VerifyReports = make(map[string]*verify.Report, 4)
	for _, bin := range bins {
		rep := verify.Binary(bin.p, b.RegionsFor(bin.p), verify.Options{
			CloneEnabled: !b.Config.NoClone, Binary: bin.name,
		})
		b.VerifyReports[bin.name] = rep
		if b.Config.Verify == verify.ModeEnforce && !rep.Clean() {
			return fmt.Errorf("synchronization verification failed on the %s binary:\n%s", bin.name, rep)
		}
	}
	return nil
}

// AcceptedKeys returns the accepted region keys.
func (b *Build) AcceptedKeys() map[regions.Key]bool { return regions.Accepted(b.Decisions) }

// RegionsFor materializes the accepted regions of one of the build's
// program variants.
func (b *Build) RegionsFor(p *ir.Program) []*interp.Region {
	return regions.Regions(p, b.AcceptedKeys())
}

// DepProfile runs the base binary on the given input and returns its
// dependence/coverage profile.
func (b *Build) DepProfile(input []int64) (*profile.Profile, error) {
	tr, err := interp.Run(b.Base, interp.Options{
		Input: input, Seed: b.Config.Seed, Regions: b.RegionsFor(b.Base),
		MaxSteps: b.Config.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	prof := profile.Analyze(tr)
	tr.Release() // the profile retains no event references
	return prof, nil
}

// Trace produces the functional trace of one variant on the given input,
// with the accepted regions delimiting epochs.
func (b *Build) Trace(p *ir.Program, input []int64) (*trace.ProgramTrace, error) {
	return interp.Run(p, interp.Options{
		Input: input, Seed: b.Config.Seed, Regions: b.RegionsFor(p),
		MaxSteps: b.Config.MaxSteps,
	})
}

// CheckEquivalence verifies that all variants produce identical printed
// output on the given input — the pipeline-wide semantic-preservation
// invariant.
func (b *Build) CheckEquivalence(input []int64) error {
	var ref []int64
	for i, p := range []*ir.Program{b.Base, b.Train, b.Ref} {
		tr, err := b.Trace(p, input)
		if err != nil {
			return fmt.Errorf("variant %d: %w", i, err)
		}
		tr.Release() // only Output is read below; Release keeps it
		if i == 0 {
			ref = tr.Output
			continue
		}
		if len(tr.Output) != len(ref) {
			return fmt.Errorf("variant %d: output length %d != %d", i, len(tr.Output), len(ref))
		}
		for j := range ref {
			if tr.Output[j] != ref[j] {
				return fmt.Errorf("variant %d: output[%d] = %d, want %d", i, j, tr.Output[j], ref[j])
			}
		}
	}
	return nil
}
