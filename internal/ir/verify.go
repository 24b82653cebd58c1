package ir

import (
	"fmt"
	"sort"
)

// Verify checks structural invariants of a function's IR:
//
//   - every block ends in exactly one terminator, with no terminator mid-block
//   - successor counts match the terminator kind (Br:1, CondBr:2, Ret:0)
//   - every successor and predecessor belongs to the function
//   - predecessor lists are consistent with successor lists
//   - no block appears twice in the function's block list
//   - register operands are within [0, NumRegs)
//   - an entry block exists and belongs to the function
//
// It returns the first violation found.
func (f *Func) Verify() error {
	if f.Entry == nil {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if inFunc[b] {
			return fmt.Errorf("%s: block b%d appears twice in the block list", f.Name, b.Index)
		}
		inFunc[b] = true
	}
	if !inFunc[f.Entry] {
		return fmt.Errorf("%s: entry block not in function", f.Name)
	}
	checkReg := func(b *Block, in *Instr, r Reg, what string) error {
		if r == None {
			return nil
		}
		if int(r) < 0 || int(r) >= f.NumRegs {
			return fmt.Errorf("%s b%d: %v: %s register r%d out of range [0,%d)",
				f.Name, b.Index, in, what, int(r), f.NumRegs)
		}
		return nil
	}
	uses := make([]Reg, 0, 4)
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s b%d: empty block", f.Name, b.Index)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fmt.Errorf("%s b%d: last instruction %v is not a terminator", f.Name, b.Index, in)
				}
				return fmt.Errorf("%s b%d: terminator %v in mid-block position %d", f.Name, b.Index, in, i)
			}
			if err := checkReg(b, in, in.Dst, "dst"); err != nil {
				return err
			}
			uses = in.AppendUses(uses[:0])
			for _, u := range uses {
				if err := checkReg(b, in, u, "use"); err != nil {
					return err
				}
			}
		}
		t := b.Instrs[len(b.Instrs)-1]
		wantSuccs := map[Op]int{Br: 1, CondBr: 2, Ret: 0}[t.Op]
		if len(b.Succs) != wantSuccs {
			return fmt.Errorf("%s b%d: %v has %d successors, want %d",
				f.Name, b.Index, t, len(b.Succs), wantSuccs)
		}
		for _, s := range b.Succs {
			if !inFunc[s] {
				return fmt.Errorf("%s b%d: successor b%d not in function", f.Name, b.Index, s.Index)
			}
		}
	}
	// Pred/succ consistency.
	predCount := make(map[[2]*Block]int)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			predCount[[2]*Block{b, s}]++
		}
	}
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			if !inFunc[p] {
				return fmt.Errorf("%s b%d: predecessor b%d not in function", f.Name, b.Index, p.Index)
			}
			key := [2]*Block{p, b}
			if predCount[key] == 0 {
				return fmt.Errorf("%s: b%d lists pred b%d but no matching succ edge",
					f.Name, b.Index, p.Index)
			}
			predCount[key]--
		}
	}
	// Report the lowest-numbered broken edge, not whichever the map
	// yields first: verifier errors are part of deterministic output.
	var bad [][2]*Block
	for key, n := range predCount {
		if n != 0 {
			bad = append(bad, key)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		if bad[i][0].Index != bad[j][0].Index {
			return bad[i][0].Index < bad[j][0].Index
		}
		return bad[i][1].Index < bad[j][1].Index
	})
	if len(bad) > 0 {
		key := bad[0]
		return fmt.Errorf("%s: edge b%d->b%d missing from pred list of b%d",
			f.Name, key[0].Index, key[1].Index, key[1].Index)
	}
	return nil
}

// Verify checks every function in the program plus program-level
// invariants: unique global addresses, call targets resolve, and unique
// instruction IDs.
func (p *Program) Verify() error {
	seen := make(map[int]string)
	for _, f := range p.Funcs {
		if err := f.Verify(); err != nil {
			return err
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if prev, dup := seen[in.ID]; dup {
					return fmt.Errorf("duplicate instruction ID %d in %s and %s", in.ID, prev, f.Name)
				}
				seen[in.ID] = f.Name
				if in.Op == Call {
					if _, ok := p.FuncMap[in.Sym]; !ok {
						return fmt.Errorf("%s: call to undefined function %s", f.Name, in.Sym)
					}
				}
				if in.Op == AddrGlobal {
					if _, ok := p.GlobalMap[in.Sym]; !ok {
						return fmt.Errorf("%s: reference to undefined global %s", f.Name, in.Sym)
					}
				}
			}
		}
	}
	for i := 1; i < len(p.Globals); i++ {
		prev, cur := p.Globals[i-1], p.Globals[i]
		if cur.Addr < prev.Addr+prev.Size {
			return fmt.Errorf("globals %s and %s overlap", prev.Name, cur.Name)
		}
	}
	return nil
}
