package ir

import (
	"testing"

	"tlssync/internal/racedetect"
)

// buildCallProg builds a program with a call (so the arena's args slab
// is exercised) on top of the diamond CFG.
func buildCallProg() *Program {
	p := NewProgram()
	p.AddGlobal("g", 8, 1)
	callee := buildDiamond(p)
	callee.Name = "callee"
	p.AddFunc(callee)

	f := &Func{Name: "main"}
	entry := f.NewBlock("entry")
	f.Entry = entry
	c := p.NewInstr(Const)
	c.Dst = f.NewReg()
	c.Imm = 7
	call := p.NewInstr(Call)
	call.Sym = "callee"
	call.Dst = f.NewReg()
	call.Args = []Reg{c.Dst}
	ret := p.NewInstr(Ret)
	entry.Instrs = []*Instr{c, call, ret}
	f.Renumber()
	p.AddFunc(f)
	return p
}

// TestDeepCopyAllocBudget is the allocation-budget regression test for
// the IR-clone path: a DeepCopy must stay within a small fixed number of
// allocations (program skeleton, maps and the arena's five slabs), NOT
// one per instruction. If this fails, something on the clone path
// stopped using the arena — see docs/perf.md for the budget rationale
// and how to re-baseline.
func TestDeepCopyAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := buildCallProg()

	// ~16 structural allocations per copy (Program, two maps, Globals,
	// Funcs, per-func Block slices, blockMap) plus the five slabs.
	const budget = 40
	allocs := testing.AllocsPerRun(100, func() { p.DeepCopy() })
	if allocs > budget {
		t.Errorf("DeepCopy allocates %.0f objects/op, budget %d — the arena path regressed (see docs/perf.md)", allocs, budget)
	}
}
