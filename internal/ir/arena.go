package ir

// copyArena is the slab storage behind one DeepCopy: every cloned
// instruction, block and call-argument register lives in one of three
// contiguous slabs instead of its own heap object. A program-sized copy
// therefore costs a handful of allocations instead of one per
// instruction — the build pipeline clones the scalar-synchronized base
// program once per memory-synchronization variant, so this is directly
// on the compile hot path (see docs/perf.md).
type copyArena struct {
	instrs []Instr
	blocks []Block
	args   []Reg
	iptrs  []*Instr // backing for every block's Instrs slice
	succs  []*Block // backing for every block's Succs slice
}

// newArena allocates slabs sized for the requested counts.
func newArena(nInstrs, nBlocks, nArgs, nSuccs int) copyArena {
	return copyArena{
		instrs: make([]Instr, nInstrs),
		blocks: make([]Block, nBlocks),
		args:   make([]Reg, nArgs),
		iptrs:  make([]*Instr, nInstrs),
		succs:  make([]*Block, nSuccs),
	}
}

// DeepCopy duplicates the whole program, preserving instruction IDs,
// Origins, global addresses and block structure exactly. The compiler
// pipeline copies the scalar-synchronized base program before applying
// memory-synchronization variants (train-profile, ref-profile, hybrid) so
// each variant transforms an identical starting point and profiling
// references (which name instructions by ID) remain valid in every copy.
//
// All instructions, blocks and call-argument slices of the copy are
// allocated from one arena (see copyArena); the copy is otherwise
// indistinguishable from an individually-allocated one.
func (p *Program) DeepCopy() *Program {
	nInstrs, nBlocks, nArgs, nSuccs, maxBlocks := 0, 0, 0, 0, 0
	for _, f := range p.Funcs {
		nBlocks += len(f.Blocks)
		if len(f.Blocks) > maxBlocks {
			maxBlocks = len(f.Blocks)
		}
		for _, b := range f.Blocks {
			nInstrs += len(b.Instrs)
			nSuccs += len(b.Succs)
			for _, in := range b.Instrs {
				nArgs += len(in.Args)
			}
		}
	}
	a := newArena(nInstrs, nBlocks, nArgs, nSuccs)
	io, bo, ao, so := 0, 0, 0, 0

	np := &Program{
		FuncMap:        make(map[string]*Func, len(p.Funcs)),
		GlobalMap:      make(map[string]*Global, len(p.Globals)),
		NumScalarChans: p.NumScalarChans,
		NumMemSyncs:    p.NumMemSyncs,
		nextID:         p.nextID,
	}
	for _, g := range p.Globals {
		ng := *g
		np.Globals = append(np.Globals, &ng)
		np.GlobalMap[ng.Name] = &ng
	}
	blockMap := make(map[*Block]*Block, maxBlocks)
	for _, f := range p.Funcs {
		nf := &Func{
			Name:      f.Name,
			NParams:   f.NParams,
			NumRegs:   f.NumRegs,
			FrameSize: f.FrameSize,
			HasRet:    f.HasRet,
		}
		clear(blockMap)
		nf.Blocks = make([]*Block, len(f.Blocks))
		for i, b := range f.Blocks {
			nb := &a.blocks[bo]
			bo++
			nb.Index, nb.Name, nb.ParallelHeader = b.Index, b.Name, b.ParallelHeader
			nf.Blocks[i] = nb
			blockMap[b] = nb
		}
		for _, b := range f.Blocks {
			nb := blockMap[b]
			nb.Instrs = a.iptrs[io : io+len(b.Instrs) : io+len(b.Instrs)]
			for i, in := range b.Instrs {
				c := &a.instrs[io]
				io++
				*c = *in
				if in.Args != nil {
					dst := a.args[ao : ao+len(in.Args) : ao+len(in.Args)]
					ao += len(in.Args)
					copy(dst, in.Args)
					c.Args = dst
				}
				nb.Instrs[i] = c
			}
			nb.Succs = a.succs[so : so : so+len(b.Succs)]
			so += len(b.Succs)
			for _, s := range b.Succs {
				nb.Succs = append(nb.Succs, blockMap[s])
			}
		}
		nf.Entry = blockMap[f.Entry]
		nf.Renumber()
		np.AddFunc(nf)
	}
	return np
}
