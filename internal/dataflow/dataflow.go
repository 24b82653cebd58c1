// Package dataflow provides bit-vector data-flow analyses over the IR.
// The TLS passes use register liveness to find loop-carried scalars
// (scalarsync) and to schedule signals, and a backward "may-store-later"
// style analysis (built on the same bitset type) for signal placement.
package dataflow

import (
	"math/bits"

	"tlssync/internal/ir"
)

// Bitset is a fixed-width bit vector.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// OrInto ors src into b, reporting whether b changed.
func (b Bitset) OrInto(src Bitset) bool {
	changed := false
	for i := range b {
		nv := b[i] | src[i]
		if nv != b[i] {
			b[i] = nv
			changed = true
		}
	}
	return changed
}

// AndInto intersects src into b, reporting whether b changed.
func (b Bitset) AndInto(src Bitset) bool {
	changed := false
	for i := range b {
		nv := b[i] & src[i]
		if nv != b[i] {
			b[i] = nv
			changed = true
		}
	}
	return changed
}

// AndNot clears in b every bit set in mask.
func (b Bitset) AndNot(mask Bitset) {
	for i := range b {
		b[i] &^= mask[i]
	}
}

// Copy returns an independent copy.
func (b Bitset) Copy() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set bit in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			fn(wi*64 + i)
			w &= w - 1
		}
	}
}

// Liveness holds per-block register liveness for a function.
type Liveness struct {
	F *ir.Func
	// In[b] is the set of registers live on entry to block b;
	// Out[b] on exit.
	In  map[*ir.Block]Bitset
	Out map[*ir.Block]Bitset
	// UEVar[b] (upward-exposed uses) and Kill[b] (defs) per block.
	UEVar map[*ir.Block]Bitset
	Kill  map[*ir.Block]Bitset
}

// ComputeLiveness runs backward liveness over f's registers.
func ComputeLiveness(f *ir.Func) *Liveness {
	lv := &Liveness{
		F:     f,
		In:    make(map[*ir.Block]Bitset, len(f.Blocks)),
		Out:   make(map[*ir.Block]Bitset, len(f.Blocks)),
		UEVar: make(map[*ir.Block]Bitset, len(f.Blocks)),
		Kill:  make(map[*ir.Block]Bitset, len(f.Blocks)),
	}
	n := f.NumRegs
	uses := make([]ir.Reg, 0, 4)
	for _, b := range f.Blocks {
		ue, kill := NewBitset(n), NewBitset(n)
		for _, in := range b.Instrs {
			uses = in.AppendUses(uses[:0])
			for _, u := range uses {
				if !kill.Has(int(u)) {
					ue.Set(int(u))
				}
			}
			if in.HasDst() {
				kill.Set(int(in.Dst))
			}
		}
		lv.UEVar[b], lv.Kill[b] = ue, kill
		lv.In[b], lv.Out[b] = NewBitset(n), NewBitset(n)
	}
	// Iterate to fixpoint: In = UEVar ∪ (Out − Kill); Out = ∪ In[succ].
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b]
			for _, s := range b.Succs {
				if out.OrInto(lv.In[s]) {
					changed = true
				}
			}
			newIn := out.Copy()
			newIn.AndNot(lv.Kill[b])
			newIn.OrInto(lv.UEVar[b])
			if lv.In[b].OrInto(newIn) {
				changed = true
			}
		}
	}
	return lv
}

// LiveAt returns the set of registers live immediately before instruction
// index idx in block b.
func (lv *Liveness) LiveAt(b *ir.Block, idx int) Bitset {
	live := lv.Out[b].Copy()
	uses := make([]ir.Reg, 0, 4)
	for i := len(b.Instrs) - 1; i >= idx; i-- {
		in := b.Instrs[i]
		if in.HasDst() {
			live.Clear(int(in.Dst))
		}
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			live.Set(int(u))
		}
	}
	return live
}

// DefinedIn returns the set of registers assigned anywhere in the given
// block set.
func DefinedIn(f *ir.Func, blocks map[*ir.Block]bool) Bitset {
	defs := NewBitset(f.NumRegs)
	for b := range blocks {
		for _, in := range b.Instrs {
			if in.HasDst() {
				defs.Set(int(in.Dst))
			}
		}
	}
	return defs
}
