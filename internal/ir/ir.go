// Package ir defines the typed three-address intermediate representation
// the TLS compiler operates on, including the TLS-specific synchronization
// operations (scalar and memory-resident wait/signal, the forwarded-value
// check/select protocol) that the optimization passes insert.
//
// Values live in virtual registers; memory is a flat 64-bit byte-addressed
// space (globals, arena heap, and per-frame stack slots). All scalars are
// 64-bit words.
package ir

import (
	"fmt"

	"tlssync/internal/lang"
)

// Reg is a virtual register index. None means "no register".
type Reg int

// None marks an absent register operand.
const None Reg = -1

// AluOp enumerates arithmetic/comparison operations for Bin instructions.
type AluOp int

// ALU operations.
const (
	Add AluOp = iota
	Sub
	Mul
	Div
	Rem
	Shl
	Shr
	And
	Or
	Xor
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpEq
	CmpNe
)

var aluNames = [...]string{"add", "sub", "mul", "div", "rem", "shl", "shr",
	"and", "or", "xor", "lt", "le", "gt", "ge", "eq", "ne"}

// String returns the mnemonic of the ALU operation.
func (a AluOp) String() string { return aluNames[a] }

// Eval computes the ALU operation on two int64 operands. Division and
// remainder by zero yield 0 (MiniC semantics: defined, deterministic).
func (a AluOp) Eval(x, y int64) int64 {
	switch a {
	case Add:
		return x + y
	case Sub:
		return x - y
	case Mul:
		return x * y
	case Div:
		if y == 0 {
			return 0
		}
		return x / y
	case Rem:
		if y == 0 {
			return 0
		}
		return x % y
	case Shl:
		return x << (uint64(y) & 63)
	case Shr:
		return x >> (uint64(y) & 63)
	case And:
		return x & y
	case Or:
		return x | y
	case Xor:
		return x ^ y
	case CmpLt:
		return b2i(x < y)
	case CmpLe:
		return b2i(x <= y)
	case CmpGt:
		return b2i(x > y)
	case CmpGe:
		return b2i(x >= y)
	case CmpEq:
		return b2i(x == y)
	case CmpNe:
		return b2i(x != y)
	}
	panic(fmt.Sprintf("ir: bad AluOp %d", a))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Op enumerates IR operations.
type Op int

// IR operations. The block of TLS operations at the end is never produced
// by lowering; only the scalarsync and memsync passes insert them.
const (
	Const      Op = iota // Dst = Imm
	Bin                  // Dst = A <Alu> B
	Neg                  // Dst = -A
	Not                  // Dst = !A
	Mov                  // Dst = A
	Load                 // Dst = Mem[A]
	Store                // Mem[A] = B
	AddrGlobal           // Dst = address of global Sym (+Imm)
	AddrLocal            // Dst = frame base + Imm
	NewObj               // Dst = arena alloc of Imm bytes (zeroed)
	Rnd                  // Dst = deterministic PRNG in [0, A)
	Input                // Dst = input[A mod len(input)]
	Print                // print value in A
	Call                 // Dst? = call Sym(Args...)
	Ret                  // return A (or nothing if A == None)
	Br                   // goto Succs[0]
	CondBr               // if A != 0 goto Succs[0] else Succs[1]

	// TLS synchronization operations.
	WaitScalar   // Dst = wait on scalar channel Imm (from predecessor epoch)
	SignalScalar // signal scalar channel Imm with value A (to successor epoch)
	WaitMemAddr  // Dst = forwarded address for memory sync Imm (stalls)
	WaitMemVal   // Dst = forwarded value for memory sync Imm (stalls)
	CheckFwd     // uff[Imm] = (A == B) && A != 0; A=forwarded addr, B=actual addr
	LoadSync     // Dst = Mem[A]; under sync Imm: violation-immune if uff set;
	// clears uff[Imm] if Mem[A] was overwritten locally
	SelectFwd     // Dst = uff[Imm] ? A : B; then uff[Imm] = 0. A=fwd val, B=mem val
	SignalMem     // signal memory sync Imm: address=A, value=B
	SignalMemNull // signal memory sync Imm with NULL address (storeless path)
)

var opNames = map[Op]string{
	Const: "const", Bin: "bin", Neg: "neg", Not: "not", Mov: "mov",
	Load: "load", Store: "store", AddrGlobal: "addrg", AddrLocal: "addrl",
	NewObj: "new", Rnd: "rnd", Input: "input", Print: "print",
	Call: "call", Ret: "ret", Br: "br", CondBr: "condbr",
	WaitScalar: "wait.s", SignalScalar: "signal.s",
	WaitMemAddr: "wait.ma", WaitMemVal: "wait.mv", CheckFwd: "checkfwd",
	LoadSync: "load.sync", SelectFwd: "select", SignalMem: "signal.m",
	SignalMemNull: "signal.mnull",
}

// String returns the mnemonic of the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == Br || o == CondBr || o == Ret }

// IsMemAccess reports whether the op reads or writes tracked memory.
func (o Op) IsMemAccess() bool { return o == Load || o == Store || o == LoadSync }

// Instr is a single IR instruction.
//
// ID is a program-unique static instruction identifier used by the
// dependence profiler to name memory references; Origin is the ID of the
// instruction this one was cloned from (Origin == ID for originals), which
// lets the memsync pass locate profiled references inside cloned
// procedures.
type Instr struct {
	Op   Op
	Alu  AluOp
	Dst  Reg
	A, B Reg
	Imm  int64
	Sym  string // global name for AddrGlobal, callee for Call
	Args []Reg  // call arguments

	ID     int
	Origin int
	Pos    lang.Pos
}

// Uses returns the registers read by the instruction.
func (in *Instr) Uses() []Reg {
	var u []Reg
	add := func(r Reg) {
		if r != None {
			u = append(u, r)
		}
	}
	switch in.Op {
	case Const, AddrGlobal, AddrLocal, NewObj, WaitScalar, WaitMemAddr, WaitMemVal, Br, SignalMemNull:
		// no register uses
	case Call:
		for _, a := range in.Args {
			add(a)
		}
	default:
		add(in.A)
		add(in.B)
	}
	return u
}

// HasDst reports whether the instruction writes a destination register.
func (in *Instr) HasDst() bool { return in.Dst != None }

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator, with explicit successor edges.
type Block struct {
	Index  int
	Name   string
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block

	// ParallelHeader marks the header block of a source-level
	// `parallel for` loop: the candidate speculative region. The marker is
	// placed by lowering and consumed by region selection.
	ParallelHeader bool
}

// Terminator returns the block's final instruction, or nil if empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Func is an IR function. Parameters occupy registers 0..NParams-1 on entry.
type Func struct {
	Name      string
	NParams   int
	NumRegs   int
	FrameSize int64 // bytes of frame-resident (address-taken) locals
	Blocks    []*Block
	Entry     *Block

	// HasRet reports whether the function returns a value.
	HasRet bool
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewBlock appends a fresh, empty block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Index: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Renumber reassigns contiguous block indices (after block insertion or
// deletion) and recomputes predecessor lists.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// Global is a program global variable with its assigned address.
type Global struct {
	Name string
	Size int64
	Addr int64
	Init int64 // initial value of the first word (0 unless initialized)
}

// Memory segment bases. The stack segment is excluded from TLS dependence
// tracking: each epoch conceptually has a private stack (its own CPU's), so
// frame-slot reuse across epochs is not a real data dependence.
const (
	GlobalBase = int64(0x10000)
	HeapBase   = int64(0x1000000)
	StackBase  = int64(0x40000000)
	StackLimit = int64(0x50000000)
)

// IsStackAddr reports whether addr falls in the simulated stack segment.
func IsStackAddr(addr int64) bool { return addr >= StackBase && addr < StackLimit }

// Program is a complete IR program.
type Program struct {
	Funcs     []*Func
	FuncMap   map[string]*Func
	Globals   []*Global
	GlobalMap map[string]*Global

	// NumScalarChans and NumMemSyncs count the synchronization channels
	// allocated by the scalarsync and memsync passes.
	NumScalarChans int
	NumMemSyncs    int

	nextID int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		FuncMap:   make(map[string]*Func),
		GlobalMap: make(map[string]*Global),
		nextID:    1,
	}
}

// AddFunc registers a function with the program.
func (p *Program) AddFunc(f *Func) {
	p.Funcs = append(p.Funcs, f)
	p.FuncMap[f.Name] = f
}

// AddGlobal registers a global, assigning its address sequentially in the
// globals segment.
func (p *Program) AddGlobal(name string, size, init int64) *Global {
	addr := GlobalBase
	if n := len(p.Globals); n > 0 {
		last := p.Globals[n-1]
		addr = last.Addr + last.Size
		// Keep distinct globals line-aligned so false sharing between
		// globals is a property of programs using arrays/structs, not an
		// accident of global placement.
		const line = 32
		addr = (addr + line - 1) / line * line
	}
	g := &Global{Name: name, Size: size, Addr: addr, Init: init}
	p.Globals = append(p.Globals, g)
	p.GlobalMap[name] = g
	return g
}

// NewInstr creates an instruction with a fresh program-unique ID.
func (p *Program) NewInstr(op Op) *Instr {
	in := &Instr{Op: op, Dst: None, A: None, B: None, ID: p.nextID}
	in.Origin = in.ID
	p.nextID++
	return in
}

// CloneInstr duplicates an instruction with a fresh ID, preserving Origin
// lineage (the clone's Origin is the source's Origin).
func (p *Program) CloneInstr(in *Instr) *Instr {
	c := *in
	c.ID = p.nextID
	p.nextID++
	c.Origin = in.Origin
	if in.Args != nil {
		c.Args = append([]Reg(nil), in.Args...)
	}
	return &c
}

// MaxInstrID returns an exclusive upper bound on instruction IDs, useful
// for sizing side tables indexed by instruction ID.
func (p *Program) MaxInstrID() int { return p.nextID }

// CloneFunc deep-copies fn under the new name, giving every instruction a
// fresh ID with Origin lineage preserved. The clone is registered with the
// program.
func (p *Program) CloneFunc(fn *Func, newName string) *Func {
	nf := &Func{
		Name:      newName,
		NParams:   fn.NParams,
		NumRegs:   fn.NumRegs,
		FrameSize: fn.FrameSize,
		HasRet:    fn.HasRet,
	}
	blockMap := make(map[*Block]*Block, len(fn.Blocks))
	for _, b := range fn.Blocks {
		nb := nf.NewBlock(b.Name)
		nb.ParallelHeader = b.ParallelHeader
		blockMap[b] = nb
	}
	for _, b := range fn.Blocks {
		nb := blockMap[b]
		for _, in := range b.Instrs {
			nb.Instrs = append(nb.Instrs, p.CloneInstr(in))
		}
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, blockMap[s])
		}
	}
	nf.Entry = blockMap[fn.Entry]
	nf.Renumber()
	p.AddFunc(nf)
	return nf
}
