package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"tlssync/internal/core"
	"tlssync/internal/interp"
	"tlssync/internal/ir"
	"tlssync/internal/lang"
	"tlssync/internal/lower"
	"tlssync/internal/memsync"
	"tlssync/internal/profile"
	"tlssync/internal/regions"
	"tlssync/internal/scalarsync"
	"tlssync/internal/verify"
)

// passBuild is what the per-pass driver produces: the artifacts the
// fingerprint compares against core.Compile's.
type passBuild struct {
	Plain, Base, Train, Ref  *ir.Program
	TrainProfile, RefProfile *profile.Profile
}

// compilePasses reproduces core.Compile one exported pass at a time, with
// a span around every call into a layer, all children of span parent.
// Each pass runs serially (core.Compile's Workers = 1 path).
func compilePasses(t *tracer, parent int, item string, cfg core.Config) (*passBuild, error) {
	cfg = cfg.Canonical()
	if cfg.Optimize {
		return nil, fmt.Errorf("%s: the per-pass driver does not run the optimizer", item)
	}
	pass := func(name string, count func() int64, fn func() error) error {
		id := t.begin(parent, name, item)
		err := fn()
		var n int64
		if err == nil && count != nil {
			n = count()
		}
		t.end(id, n)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", item, name, err)
		}
		return nil
	}
	noErr := func(fn func()) func() error { return func() error { fn(); return nil } }
	var (
		checked  *lang.Checked
		p0       *ir.Program
		out      passBuild
		accepted map[regions.Key]bool
		regs     []*interp.Region
	)
	if err := pass("lang", func() int64 { return int64(len(cfg.Source)) }, func() error {
		file, err := lang.Parse(cfg.Source)
		if err != nil {
			return err
		}
		checked, err = lang.Check(file)
		return err
	}); err != nil {
		return nil, err
	}
	if err := pass("lower", func() int64 { return countInstrs(p0) }, func() (err error) {
		p0, err = lower.Lower(checked)
		return err
	}); err != nil {
		return nil, err
	}
	_ = pass("ir.deepcopy", nil, noErr(func() { out.Plain = p0.DeepCopy() }))

	// Selection profiling: every candidate loop is a region.
	_ = pass("regions", nil, noErr(func() { regs = regions.Regions(p0, nil) }))
	selProf, err := profileRun(t, parent, item, p0, cfg.TrainInput, regs, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: selection profiling: %w", item, err)
	}
	if err := pass("regions", func() int64 { return int64(len(accepted)) }, func() error {
		decisions := regions.Select(p0, selProf, cfg.Heuristics)
		if err := regions.ApplyUnrolling(p0, decisions); err != nil {
			return err
		}
		accepted = regions.Accepted(decisions)
		regs = regions.Regions(p0, accepted)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := pass("scalarsync", nil, func() error {
		scalarsync.Apply(p0, regs, scalarsync.Options{Schedule: !cfg.NoScalarSchedule})
		return p0.Verify()
	}); err != nil {
		return nil, err
	}
	out.Base = p0

	// Dependence profiles of the base binary on the train and ref inputs.
	for i, input := range [][]int64{cfg.TrainInput, cfg.RefInput} {
		_ = pass("regions", nil, noErr(func() { regs = regions.Regions(out.Base, accepted) }))
		prof, err := profileRun(t, parent, item, out.Base, input, regs, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: dependence profiling: %w", item, err)
		}
		if i == 0 {
			out.TrainProfile = prof
		} else {
			out.RefProfile = prof
		}
	}

	// Memory-synchronized variants, each on its own copy of the base.
	for i, prof := range []*profile.Profile{out.TrainProfile, out.RefProfile} {
		var p *ir.Program
		_ = pass("ir.deepcopy", nil, noErr(func() { p = out.Base.DeepCopy() }))
		_ = pass("regions", nil, noErr(func() { regs = regions.Regions(p, accepted) }))
		var groups int64
		if err := pass("memsync", func() int64 { return groups }, func() error {
			res, err := memsync.Apply(p, regs, prof.Regions, memsync.Options{Threshold: cfg.Threshold, Clone: !cfg.NoClone})
			for _, r := range res {
				groups += int64(len(r.Groups))
			}
			return err
		}); err != nil {
			return nil, err
		}
		if i == 0 {
			out.Train = p
		} else {
			out.Ref = p
		}
	}

	if cfg.Verify == verify.ModeOff {
		return &out, nil
	}
	for _, bin := range []struct {
		name string
		p    *ir.Program
	}{{"plain", out.Plain}, {"base", out.Base}, {"train", out.Train}, {"ref", out.Ref}} {
		_ = pass("regions", nil, noErr(func() { regs = regions.Regions(bin.p, accepted) }))
		if err := pass("verify", nil, func() error {
			rep := verify.Binary(bin.p, regs, verify.Options{CloneEnabled: !cfg.NoClone, Binary: bin.name})
			if cfg.Verify == verify.ModeEnforce && !rep.Clean() {
				return fmt.Errorf("synchronization verification failed on the %s binary:\n%s", bin.name, rep)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return &out, nil
}

// profileRun interprets p on input (an "interp" span counting dynamic
// events) and analyzes the trace (a "profile" span counting dependences).
func profileRun(t *tracer, parent int, item string, p *ir.Program, input []int64, regs []*interp.Region, cfg core.Config) (*profile.Profile, error) {
	id := t.begin(parent, "interp", item)
	tr, err := interp.Run(p, interp.Options{Input: input, Seed: cfg.Seed, Regions: regs, MaxSteps: cfg.MaxSteps})
	var events int64
	if err == nil {
		events = int64(tr.Events())
	}
	t.end(id, events)
	if err != nil {
		return nil, err
	}
	id = t.begin(parent, "profile", item)
	prof := profile.Analyze(tr)
	tr.Release()
	var deps int64
	for _, rp := range prof.Regions {
		deps += int64(len(rp.Deps))
	}
	t.end(id, deps)
	return prof, nil
}

func countInstrs(p *ir.Program) int64 {
	var n int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}

// fingerprint hashes the four binaries' printed IR and both dependence
// profiles' serialized form.
func fingerprint(plain, base, train, ref *ir.Program, tp, rp *profile.Profile) string {
	h := sha256.New()
	fmt.Fprintf(h, "== plain ==\n%s\n== base ==\n%s\n== train ==\n%s\n== ref ==\n%s\n", plain, base, train, ref)
	for _, p := range []*profile.Profile{tp, rp} {
		io.WriteString(h, "== profile ==\n")
		if err := p.Save(h); err != nil {
			fmt.Fprintf(h, "save error: %v\n", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func buildFingerprint(b *core.Build) string {
	return fingerprint(b.Plain, b.Base, b.Train, b.Ref, b.TrainProfile, b.RefProfile)
}

func passFingerprint(b *passBuild) string {
	return fingerprint(b.Plain, b.Base, b.Train, b.Ref, b.TrainProfile, b.RefProfile)
}
