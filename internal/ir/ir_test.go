package ir

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tlssync/internal/racedetect"
)

// buildDiamond constructs a minimal valid function:
//
//	entry -> then|else -> join(ret)
func buildDiamond(p *Program) *Func {
	f := &Func{Name: "f"}
	entry := f.NewBlock("entry")
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	f.Entry = entry

	c := p.NewInstr(Const)
	c.Dst = f.NewReg()
	c.Imm = 1
	cb := p.NewInstr(CondBr)
	cb.A = c.Dst
	entry.Instrs = []*Instr{c, cb}
	entry.Succs = []*Block{then, els}

	for _, b := range []*Block{then, els} {
		mv := p.NewInstr(Const)
		mv.Dst = f.NewReg()
		br := p.NewInstr(Br)
		b.Instrs = []*Instr{mv, br}
		b.Succs = []*Block{join}
	}
	ret := p.NewInstr(Ret)
	join.Instrs = []*Instr{ret}
	f.Renumber()
	return f
}

func TestVerifyOK(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	p.AddFunc(f)
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	// Inject a Br in the middle of entry.
	br := p.NewInstr(Br)
	f.Entry.Instrs = append([]*Instr{br}, f.Entry.Instrs...)
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "mid-block") {
		t.Fatalf("expected mid-block error, got %v", err)
	}
}

func TestVerifyCatchesBadSuccCount(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	f.Entry.Succs = f.Entry.Succs[:1] // CondBr with 1 successor
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "successors") {
		t.Fatalf("expected successor-count error, got %v", err)
	}
}

func TestVerifyCatchesRegOutOfRange(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	f.Entry.Instrs[0].Dst = Reg(99)
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected register-range error, got %v", err)
	}
}

func TestVerifyCatchesEmptyBlock(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	f.NewBlock("empty")
	f.Renumber()
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("expected empty-block error, got %v", err)
	}
}

func TestVerifyCatchesInconsistentPreds(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	// Corrupt a pred list.
	f.Entry.Preds = append(f.Entry.Preds, f.Blocks[3])
	if err := f.Verify(); err == nil {
		t.Fatal("expected pred-consistency error")
	}
}

func TestVerifyCatchesForeignPred(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	g := buildDiamond(p)
	g.Name = "g"
	// A pred pointing into a different function must be rejected before
	// the edge-consistency pass (which would also fire, but with a less
	// precise message).
	f.Blocks[3].Preds = append(f.Blocks[3].Preds, g.Entry)
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "predecessor") || !strings.Contains(err.Error(), "not in function") {
		t.Fatalf("expected foreign-pred error, got %v", err)
	}
}

func TestVerifyCatchesDuplicateBlock(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	f.Blocks = append(f.Blocks, f.Blocks[1])
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("expected duplicate-block error, got %v", err)
	}
}

func TestVerifyCatchesUndefinedCall(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	call := p.NewInstr(Call)
	call.Sym = "missing"
	f.Entry.Instrs = append([]*Instr{call}, f.Entry.Instrs...)
	p.AddFunc(f)
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("expected undefined-call error, got %v", err)
	}
}

func TestCloneFunc(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	p.AddFunc(f)
	g := p.CloneFunc(f, "f_clone")
	if err := p.Verify(); err != nil {
		t.Fatalf("verify after clone: %v", err)
	}
	if g.Name != "f_clone" || p.FuncMap["f_clone"] != g {
		t.Fatal("clone not registered")
	}
	if len(g.Blocks) != len(f.Blocks) {
		t.Fatalf("clone has %d blocks, want %d", len(g.Blocks), len(f.Blocks))
	}
	// Clone instructions must have fresh IDs but Origin pointing back.
	for i, b := range f.Blocks {
		gb := g.Blocks[i]
		for j, in := range b.Instrs {
			cn := gb.Instrs[j]
			if cn.ID == in.ID {
				t.Errorf("clone shares ID %d", in.ID)
			}
			if cn.Origin != in.Origin {
				t.Errorf("clone origin %d, want %d", cn.Origin, in.Origin)
			}
			if cn == in {
				t.Error("clone aliases original instruction")
			}
		}
		// Successor edges must point into the clone, not the original.
		for _, s := range gb.Succs {
			found := false
			for _, cb := range g.Blocks {
				if s == cb {
					found = true
				}
			}
			if !found {
				t.Error("clone successor points outside clone")
			}
		}
	}
}

func TestGlobalLayoutLineAligned(t *testing.T) {
	p := NewProgram()
	a := p.AddGlobal("a", 8, 0)
	b := p.AddGlobal("b", 40, 0)
	c := p.AddGlobal("c", 8, 0)
	for _, g := range []*Global{a, b, c} {
		if g.Addr%32 != 0 {
			t.Errorf("global %s at %#x not 32-byte aligned", g.Name, g.Addr)
		}
	}
	if b.Addr < a.Addr+a.Size || c.Addr < b.Addr+b.Size {
		t.Error("globals overlap")
	}
	if err := (&Program{Globals: []*Global{a, b, c}}).Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestAluEval(t *testing.T) {
	cases := []struct {
		op   AluOp
		x, y int64
		want int64
	}{
		{Add, 2, 3, 5}, {Sub, 2, 3, -1}, {Mul, -4, 3, -12},
		{Div, 7, 2, 3}, {Div, 7, 0, 0}, {Rem, 7, 3, 1}, {Rem, 7, 0, 0},
		{Shl, 1, 4, 16}, {Shr, 16, 4, 1}, {Shl, 1, 64, 1}, // shift masks to 6 bits
		{And, 6, 3, 2}, {Or, 6, 3, 7}, {Xor, 6, 3, 5},
		{CmpLt, 1, 2, 1}, {CmpLe, 2, 2, 1}, {CmpGt, 1, 2, 0},
		{CmpGe, 2, 2, 1}, {CmpEq, 5, 5, 1}, {CmpNe, 5, 5, 0},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestAluEvalPropertyComparisonsAreBoolean(t *testing.T) {
	f := func(x, y int64) bool {
		for _, op := range []AluOp{CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe} {
			v := op.Eval(x, y)
			if v != 0 && v != 1 {
				return false
			}
		}
		// Trichotomy: exactly one of <, ==, > holds.
		s := CmpLt.Eval(x, y) + CmpEq.Eval(x, y) + CmpGt.Eval(x, y)
		return s == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAluEvalPropertyAddSubInverse(t *testing.T) {
	f := func(x, y int64) bool {
		return Sub.Eval(Add.Eval(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstrUses(t *testing.T) {
	p := NewProgram()
	bin := p.NewInstr(Bin)
	bin.Dst, bin.A, bin.B = 0, 1, 2
	call := p.NewInstr(Call)
	call.Args = []Reg{3, None, 5}
	bareRet := p.NewInstr(Ret)
	valRet := p.NewInstr(Ret)
	valRet.A = 7
	cases := []struct {
		name string
		in   *Instr
		want []Reg
	}{
		{"Bin", bin, []Reg{1, 2}},
		{"Call with None args", call, []Reg{3, 5}},
		{"bare Ret", bareRet, nil},
		{"valued Ret", valRet, []Reg{7}},
		{"Const", p.NewInstr(Const), nil},
	}
	buf := make([]Reg, 0, 4)
	for _, c := range cases {
		got := c.in.AppendUses(buf[:0])
		if !slices.Equal(got, c.want) {
			t.Errorf("%s uses = %v, want %v", c.name, got, c.want)
		}
		// AppendUses keeps what the buffer already holds.
		if got := c.in.AppendUses([]Reg{9}); !slices.Equal(got, append([]Reg{9}, c.want...)) {
			t.Errorf("%s appended to [r9] = %v, want r9 then %v", c.name, got, c.want)
		}
		if racedetect.Enabled {
			continue
		}
		allocs := testing.AllocsPerRun(100, func() { buf = c.in.AppendUses(buf[:0]) })
		if allocs != 0 {
			t.Errorf("%s: AppendUses into a buffer with room allocates %.0f objects/op, want 0", c.name, allocs)
		}
	}
}

func TestStackAddrRange(t *testing.T) {
	if IsStackAddr(GlobalBase) || IsStackAddr(HeapBase) {
		t.Error("global/heap classified as stack")
	}
	if !IsStackAddr(StackBase) || !IsStackAddr(StackLimit-8) {
		t.Error("stack range misclassified")
	}
	if IsStackAddr(StackLimit) {
		t.Error("StackLimit should be exclusive")
	}
}

func TestInstrString(t *testing.T) {
	p := NewProgram()
	cases := []struct {
		build func() *Instr
		want  string
	}{
		{func() *Instr { in := p.NewInstr(Const); in.Dst = 3; in.Imm = 7; return in }, "r3 = const 7"},
		{func() *Instr { in := p.NewInstr(Load); in.Dst = 1; in.A = 2; return in }, "r1 = load [r2]"},
		{func() *Instr { in := p.NewInstr(Store); in.A = 1; in.B = 2; return in }, "store [r1], r2"},
		{func() *Instr {
			in := p.NewInstr(SignalMem)
			in.Imm = 4
			in.A, in.B = 1, 2
			return in
		}, "signal.m sync4, addr=r1, val=r2"},
		{func() *Instr { in := p.NewInstr(WaitScalar); in.Dst = 9; in.Imm = 2; return in }, "r9 = wait.s ch2"},
	}
	for _, c := range cases {
		if got := c.build().String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestUniqueInstrIDs(t *testing.T) {
	p := NewProgram()
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		in := p.NewInstr(Const)
		if seen[in.ID] {
			t.Fatalf("duplicate ID %d", in.ID)
		}
		seen[in.ID] = true
		if in.Origin != in.ID {
			t.Fatalf("fresh instr Origin %d != ID %d", in.Origin, in.ID)
		}
	}
}

func TestInstrStringAllOps(t *testing.T) {
	// Every op must render without panicking and contain its mnemonic or
	// a distinctive token.
	p := NewProgram()
	ops := []Op{Const, Bin, Neg, Not, Mov, Load, Store, AddrGlobal,
		AddrLocal, NewObj, Rnd, Input, Print, Call, Ret, Br, CondBr,
		WaitScalar, SignalScalar, WaitMemAddr, WaitMemVal, CheckFwd,
		LoadSync, SelectFwd, SignalMem, SignalMemNull}
	for _, op := range ops {
		in := p.NewInstr(op)
		in.Dst, in.A, in.B = 0, 1, 2
		in.Sym = "sym"
		if s := in.String(); s == "" {
			t.Errorf("op %v renders empty", op)
		}
	}
	// Variants.
	call := p.NewInstr(Call)
	call.Sym = "f"
	call.Args = []Reg{1, 2}
	if s := call.String(); s != "call f(r1, r2)" {
		t.Errorf("void call = %q", s)
	}
	ag := p.NewInstr(AddrGlobal)
	ag.Dst, ag.Sym, ag.Imm = 1, "g", 8
	if s := ag.String(); s != "r1 = addrg g+8" {
		t.Errorf("addrg+off = %q", s)
	}
	ret := p.NewInstr(Ret)
	if ret.String() != "ret" {
		t.Errorf("bare ret = %q", ret.String())
	}
	if Op(999).String() == "" {
		t.Error("unknown op renders empty")
	}
	if got := Op(999).String(); got != "Op(999)" {
		t.Errorf("unknown op = %q", got)
	}
}

func TestFuncAndProgramString(t *testing.T) {
	p := NewProgram()
	p.AddGlobal("g", 8, 5)
	f := buildDiamond(p)
	f.Blocks[0].ParallelHeader = true
	p.AddFunc(f)
	txt := p.String()
	for _, want := range []string{"global g", "func f", "[parallel header]", "-> b1, b2"} {
		if !strings.Contains(txt, want) {
			t.Errorf("program text missing %q:\n%s", want, txt)
		}
	}
}

func TestVerifyProgramDuplicateIDs(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	// Force a duplicate ID.
	f.Blocks[1].Instrs[0].ID = f.Blocks[2].Instrs[0].ID
	p.AddFunc(f)
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "duplicate instruction ID") {
		t.Fatalf("expected duplicate-ID error, got %v", err)
	}
}

func TestVerifyUndefinedGlobal(t *testing.T) {
	p := NewProgram()
	f := buildDiamond(p)
	ag := p.NewInstr(AddrGlobal)
	ag.Dst = 0
	ag.Sym = "ghost"
	f.Entry.Instrs = append([]*Instr{ag}, f.Entry.Instrs...)
	p.AddFunc(f)
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "undefined global") {
		t.Fatalf("expected undefined-global error, got %v", err)
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	p := NewProgram()
	p.AddGlobal("g", 8, 1)
	f := buildDiamond(p)
	p.AddFunc(f)
	cp := p.DeepCopy()
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	// IDs preserved exactly.
	for i, b := range f.Blocks {
		for j, in := range b.Instrs {
			c := cp.Funcs[0].Blocks[i].Instrs[j]
			if c.ID != in.ID || c.Origin != in.Origin {
				t.Fatal("IDs changed in deep copy")
			}
			if c == in {
				t.Fatal("deep copy aliases instruction")
			}
		}
	}
	// Mutating the copy leaves the original intact.
	cp.Funcs[0].Blocks[0].Instrs[0].Imm = 999
	if f.Blocks[0].Instrs[0].Imm == 999 {
		t.Fatal("copy mutation leaked")
	}
	// New instructions in the copy get fresh IDs beyond the original's.
	ni := cp.NewInstr(Const)
	if ni.ID < p.MaxInstrID() {
		t.Errorf("copy's fresh ID %d collides with original space (< %d)", ni.ID, p.MaxInstrID())
	}
}
