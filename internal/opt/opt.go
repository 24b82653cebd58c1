// Package opt implements classical scalar optimizations over the IR:
// per-block constant folding and copy propagation, plus global
// liveness-based dead-code elimination. The original system relied on
// gcc -O3 as its backend; these passes play that role for MiniC.
//
// The passes never change the CFG (blocks and terminators are preserved),
// so region keys, parallel-header marks and loop structure survive; they
// run before profiling, so every compiled variant sees the same optimized
// instruction stream. The pipeline leaves them off by default — the
// evaluation's workloads are calibrated against unoptimized code — and
// exposes them via core.Config.Optimize (ablated by
// BenchmarkAblationOptimizer).
package opt

import (
	"tlssync/internal/dataflow"
	"tlssync/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded     int // Bin/Neg/Not instructions replaced by Const
	CopiesProp int // uses rewritten by copy propagation
	Removed    int // dead instructions eliminated
}

// Optimize runs fold/copy-prop/DCE to a fixpoint over every function.
func Optimize(p *ir.Program) Stats {
	var total Stats
	for _, f := range p.Funcs {
		for {
			s := optimizeFunc(f)
			total.Folded += s.Folded
			total.CopiesProp += s.CopiesProp
			total.Removed += s.Removed
			if s == (Stats{}) {
				break
			}
		}
	}
	return total
}

func optimizeFunc(f *ir.Func) Stats {
	var s Stats
	for _, b := range f.Blocks {
		s.Folded += foldBlock(b)
		s.CopiesProp += propagateBlock(b)
	}
	s.Removed = eliminateDead(f)
	return s
}

// foldBlock replaces pure operations on known constants with Const.
func foldBlock(b *ir.Block) int {
	consts := make(map[ir.Reg]int64)
	folded := 0
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.Const:
			consts[in.Dst] = in.Imm
			continue
		case ir.Bin:
			av, aok := consts[in.A]
			bv, bok := consts[in.B]
			if aok && bok {
				in.Op = ir.Const
				in.Imm = in.Alu.Eval(av, bv)
				in.A, in.B = ir.None, ir.None
				consts[in.Dst] = in.Imm
				folded++
				continue
			}
		case ir.Neg:
			if v, ok := consts[in.A]; ok {
				in.Op = ir.Const
				in.Imm = -v
				in.A = ir.None
				consts[in.Dst] = in.Imm
				folded++
				continue
			}
		case ir.Not:
			if v, ok := consts[in.A]; ok {
				in.Op = ir.Const
				if v == 0 {
					in.Imm = 1
				} else {
					in.Imm = 0
				}
				in.A = ir.None
				consts[in.Dst] = in.Imm
				folded++
				continue
			}
		case ir.Mov:
			if v, ok := consts[in.A]; ok {
				in.Op = ir.Const
				in.Imm = v
				in.A = ir.None
				consts[in.Dst] = in.Imm
				folded++
				continue
			}
		}
		if in.HasDst() {
			delete(consts, in.Dst)
		}
	}
	return folded
}

// propagateBlock rewrites uses of plain register copies (Mov dst, src)
// to use the source directly, within a block, invalidating on
// redefinition of either side. Registers are not SSA, so the copy map
// must be purged aggressively.
func propagateBlock(b *ir.Block) int {
	copyOf := make(map[ir.Reg]ir.Reg)
	rewritten := 0
	invalidate := func(r ir.Reg) {
		delete(copyOf, r)
		for d, s := range copyOf {
			if s == r {
				delete(copyOf, d)
			}
		}
	}
	replace := func(r ir.Reg) ir.Reg {
		if s, ok := copyOf[r]; ok {
			rewritten++
			return s
		}
		return r
	}
	for _, in := range b.Instrs {
		// Rewrite uses first.
		switch in.Op {
		case ir.Const, ir.AddrGlobal, ir.AddrLocal, ir.NewObj,
			ir.WaitScalar, ir.WaitMemAddr, ir.WaitMemVal, ir.Br, ir.SignalMemNull:
			// no register uses
		case ir.Call:
			for i := range in.Args {
				in.Args[i] = replace(in.Args[i])
			}
		default:
			if in.A != ir.None {
				in.A = replace(in.A)
			}
			if in.B != ir.None {
				in.B = replace(in.B)
			}
		}
		// Then record/invalidate definitions.
		if in.Op == ir.Mov && in.A != in.Dst {
			invalidate(in.Dst)
			copyOf[in.Dst] = in.A
			continue
		}
		if in.HasDst() {
			invalidate(in.Dst)
		}
	}
	return rewritten
}

// pure reports whether an op has no side effects beyond its destination.
func pure(op ir.Op) bool {
	switch op {
	case ir.Const, ir.Bin, ir.Neg, ir.Not, ir.Mov, ir.AddrGlobal, ir.AddrLocal:
		return true
	}
	return false
}

// eliminateDead removes pure instructions whose destination is dead at
// their program point (global liveness).
func eliminateDead(f *ir.Func) int {
	lv := dataflow.ComputeLiveness(f)
	removed := 0
	uses := make([]ir.Reg, 0, 4)
	for _, b := range f.Blocks {
		live := lv.Out[b].Copy()
		// Walk backwards, maintaining liveness within the block.
		keep := make([]*ir.Instr, 0, len(b.Instrs))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			dead := pure(in.Op) && in.HasDst() && !live.Has(int(in.Dst))
			if dead {
				removed++
				continue
			}
			if in.HasDst() {
				live.Clear(int(in.Dst))
			}
			uses = in.AppendUses(uses[:0])
			for _, u := range uses {
				live.Set(int(u))
			}
			keep = append(keep, in)
		}
		// Reverse keep back into order.
		for i, j := 0, len(keep)-1; i < j; i, j = i+1, j-1 {
			keep[i], keep[j] = keep[j], keep[i]
		}
		b.Instrs = keep
	}
	return removed
}
