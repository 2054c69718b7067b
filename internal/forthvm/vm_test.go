package forthvm

import (
	"errors"
	"testing"
	"testing/quick"

	"vmopt/internal/core"
)

// run executes code until halt and returns the final VM.
func run(t *testing.T, code []core.Inst) *VM {
	t.Helper()
	v := New(code, 1024)
	if err := v.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

// prog is a shorthand constructor.
func prog(insts ...core.Inst) []core.Inst { return insts }

func i(op uint32) core.Inst             { return core.Inst{Op: op} }
func ia(op uint32, arg int64) core.Inst { return core.Inst{Op: op, Arg: arg} }

func wantStack(t *testing.T, v *VM, want ...int64) {
	t.Helper()
	got := v.Stack()
	if len(got) != len(want) {
		t.Fatalf("stack = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("stack = %v, want %v", got, want)
		}
	}
}

func TestStackOps(t *testing.T) {
	tests := []struct {
		name string
		code []core.Inst
		want []int64
	}{
		{"lit", prog(ia(OpLit, 42), i(OpHalt)), []int64{42}},
		{"dup", prog(ia(OpLit, 7), i(OpDup), i(OpHalt)), []int64{7, 7}},
		{"drop", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpDrop), i(OpHalt)), []int64{1}},
		{"swap", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpSwap), i(OpHalt)), []int64{2, 1}},
		{"over", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpOver), i(OpHalt)), []int64{1, 2, 1}},
		{"rot", prog(ia(OpLit, 1), ia(OpLit, 2), ia(OpLit, 3), i(OpRot), i(OpHalt)), []int64{2, 3, 1}},
		{"nip", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpNip), i(OpHalt)), []int64{2}},
		{"tuck", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpTuck), i(OpHalt)), []int64{2, 1, 2}},
		{"2dup", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpTwoDup), i(OpHalt)), []int64{1, 2, 1, 2}},
		{"2drop", prog(ia(OpLit, 1), ia(OpLit, 2), i(OpTwoDrop), i(OpHalt)), nil},
		{"pick0", prog(ia(OpLit, 5), ia(OpLit, 6), ia(OpLit, 0), i(OpPick), i(OpHalt)), []int64{5, 6, 6}},
		{"pick1", prog(ia(OpLit, 5), ia(OpLit, 6), ia(OpLit, 1), i(OpPick), i(OpHalt)), []int64{5, 6, 5}},
		{"?dup nonzero", prog(ia(OpLit, 3), i(OpQDup), i(OpHalt)), []int64{3, 3}},
		{"?dup zero", prog(ia(OpLit, 0), i(OpQDup), i(OpHalt)), []int64{0}},
		{"depth", prog(ia(OpLit, 9), ia(OpLit, 9), i(OpDepth), i(OpHalt)), []int64{9, 9, 2}},
		{"rstack", prog(ia(OpLit, 4), i(OpToR), i(OpRFetch), i(OpRFrom), i(OpHalt)), []int64{4, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantStack(t, run(t, tt.code), tt.want...)
		})
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		a, b int64
		op   uint32
		want int64
	}{
		{"add", 3, 4, OpAdd, 7},
		{"sub", 10, 4, OpSub, 6},
		{"mul", 6, 7, OpMul, 42},
		{"div", 42, 5, OpDiv, 8},
		{"div negative", -7, 2, OpDiv, -3},
		{"mod", 42, 5, OpMod, 2},
		{"min", 3, -4, OpMin, -4},
		{"max", 3, -4, OpMax, 3},
		{"lshift", 3, 4, OpLshift, 48},
		{"rshift", 48, 4, OpRshift, 3},
		{"and", 0b1100, 0b1010, OpAnd, 0b1000},
		{"or", 0b1100, 0b1010, OpOr, 0b1110},
		{"xor", 0b1100, 0b1010, OpXor, 0b0110},
		{"eq true", 5, 5, OpEq, -1},
		{"eq false", 5, 6, OpEq, 0},
		{"ne", 5, 6, OpNe, -1},
		{"lt", 5, 6, OpLt, -1},
		{"gt", 5, 6, OpGt, 0},
		{"le", 6, 6, OpLe, -1},
		{"ge", 5, 6, OpGe, 0},
		{"ult wraps", -1, 1, OpULt, 0}, // unsigned -1 is huge
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := run(t, prog(ia(OpLit, tt.a), ia(OpLit, tt.b), i(tt.op), i(OpHalt)))
			wantStack(t, v, tt.want)
		})
	}
}

func TestUnaryOps(t *testing.T) {
	tests := []struct {
		name string
		x    int64
		op   uint32
		want int64
	}{
		{"negate", 5, OpNegate, -5},
		{"abs neg", -5, OpAbs, 5},
		{"abs pos", 5, OpAbs, 5},
		{"1+", 5, OpOnePlus, 6},
		{"1-", 5, OpOneMinus, 4},
		{"2*", 5, OpTwoStar, 10},
		{"2/", 10, OpTwoSlash, 5},
		{"2/ negative floors", -3, OpTwoSlash, -2},
		{"invert", 0, OpInvert, -1},
		{"0= true", 0, OpZeroEq, -1},
		{"0= false", 2, OpZeroEq, 0},
		{"0<> true", 2, OpZeroNe, -1},
		{"0< true", -2, OpZeroLt, -1},
		{"0< false", 2, OpZeroLt, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := run(t, prog(ia(OpLit, tt.x), i(tt.op), i(OpHalt)))
			wantStack(t, v, tt.want)
		})
	}
}

func TestMemory(t *testing.T) {
	// 99 10 !  10 @
	v := run(t, prog(
		ia(OpLit, 99), ia(OpLit, 10), i(OpStore),
		ia(OpLit, 10), i(OpFetch),
		ia(OpLit, 5), ia(OpLit, 10), i(OpPlusStore),
		ia(OpLit, 10), i(OpFetch),
		i(OpHalt)))
	wantStack(t, v, 99, 104)
	if v.Mem()[10] != 104 {
		t.Errorf("mem[10] = %d, want 104", v.Mem()[10])
	}
}

func TestCharMemory(t *testing.T) {
	v := run(t, prog(
		ia(OpLit, 0x1ff), ia(OpLit, 3), i(OpCStore), // stores 0xff
		ia(OpLit, 3), i(OpCFetch),
		i(OpHalt)))
	wantStack(t, v, 0xff)
}

func TestBranching(t *testing.T) {
	// if top==0 jump over the lit 111
	v := run(t, prog(
		ia(OpLit, 0),
		ia(OpZBranch, 4),
		ia(OpLit, 111),
		i(OpNop),
		ia(OpLit, 222),
		i(OpHalt)))
	wantStack(t, v, 222)

	// not taken
	v = run(t, prog(
		ia(OpLit, 1),
		ia(OpZBranch, 4),
		ia(OpLit, 111),
		i(OpHalt),
		ia(OpLit, 222),
		i(OpHalt)))
	wantStack(t, v, 111)
}

func TestCallReturn(t *testing.T) {
	// 0: call 3; 1: lit 9; 2: halt; 3: lit 5; 4: ret
	v := run(t, prog(
		ia(OpCall, 3),
		ia(OpLit, 9),
		i(OpHalt),
		ia(OpLit, 5),
		i(OpRet)))
	wantStack(t, v, 5, 9)
}

func TestExecute(t *testing.T) {
	// push xt of the word at 4, execute it
	v := run(t, prog(
		ia(OpLit, 4),
		i(OpExecute),
		ia(OpLit, 1),
		i(OpHalt),
		ia(OpLit, 7),
		i(OpRet)))
	wantStack(t, v, 7, 1)
}

func TestDoLoop(t *testing.T) {
	// 5 0 DO i sum +! LOOP  -> mem[0] = 0+1+2+3+4 = 10
	v := run(t, prog(
		ia(OpLit, 5), ia(OpLit, 0), i(OpDo),
		i(OpI), ia(OpLit, 0), i(OpPlusStore),
		ia(OpLoop, 3),
		i(OpHalt)))
	if got := v.Mem()[0]; got != 10 {
		t.Errorf("sum = %d, want 10", got)
	}
}

func TestNestedDoLoopJ(t *testing.T) {
	// 3 0 DO 2 0 DO j mem0 +! LOOP LOOP -> j summed twice each: 0+0+1+1+2+2=6
	v := run(t, prog(
		ia(OpLit, 3), ia(OpLit, 0), i(OpDo),
		ia(OpLit, 2), ia(OpLit, 0), i(OpDo),
		i(OpJ), ia(OpLit, 0), i(OpPlusStore),
		ia(OpLoop, 6),
		ia(OpLoop, 3),
		i(OpHalt)))
	if got := v.Mem()[0]; got != 6 {
		t.Errorf("sum = %d, want 6", got)
	}
}

func TestPlusLoop(t *testing.T) {
	// 10 0 DO i mem0 +! 3 +LOOP -> 0+3+6+9 = 18
	v := run(t, prog(
		ia(OpLit, 10), ia(OpLit, 0), i(OpDo),
		i(OpI), ia(OpLit, 0), i(OpPlusStore),
		ia(OpLit, 3), ia(OpPlusLoop, 3),
		i(OpHalt)))
	if got := v.Mem()[0]; got != 18 {
		t.Errorf("sum = %d, want 18", got)
	}
}

func TestUnloopAndExitLoop(t *testing.T) {
	// Loop that exits early via unloop + ret.
	// 0: call 2 / 1: halt
	// 2: lit 10, lit 0, do
	// 5: i, lit 5, eq, zbranch 10
	// 9: unloop+ret path: unloop; 10: ... hmm simpler below
	v := run(t, prog(
		ia(OpCall, 2),
		i(OpHalt),
		ia(OpLit, 10), ia(OpLit, 0), i(OpDo),
		i(OpI), ia(OpLit, 5), i(OpEq), ia(OpZBranch, 11),
		i(OpUnloop), i(OpRet),
		ia(OpLoop, 5),
		i(OpRet)))
	if len(v.Stack()) != 0 {
		t.Errorf("stack not empty: %v", v.Stack())
	}
}

func TestEmitAndDot(t *testing.T) {
	v := run(t, prog(
		ia(OpLit, 'h'), i(OpEmit),
		ia(OpLit, 'i'), i(OpEmit),
		ia(OpLit, -42), i(OpDot),
		i(OpHalt)))
	if got := string(v.Out); got != "hi-42 " {
		t.Errorf("out = %q, want %q", got, "hi-42 ")
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name string
		code []core.Inst
		want error
	}{
		{"underflow", prog(i(OpAdd), i(OpHalt)), ErrStackUnderflow},
		{"pop empty", prog(i(OpDrop), i(OpHalt)), ErrStackUnderflow},
		{"rstack underflow", prog(i(OpRFrom), i(OpHalt)), ErrRStackUnderflow},
		{"ret without call", prog(i(OpRet)), ErrRStackUnderflow},
		{"div by zero", prog(ia(OpLit, 1), ia(OpLit, 0), i(OpDiv), i(OpHalt)), ErrDivByZero},
		{"mod by zero", prog(ia(OpLit, 1), ia(OpLit, 0), i(OpMod), i(OpHalt)), ErrDivByZero},
		{"bad address", prog(ia(OpLit, 1), ia(OpLit, -3), i(OpStore), i(OpHalt)), ErrBadAddress},
		{"fetch out of range", prog(ia(OpLit, 1<<40), i(OpFetch), i(OpHalt)), ErrBadAddress},
		{"pc off end", prog(i(OpNop)), ErrBadPC},
		{"execute bad xt", prog(ia(OpLit, -9), i(OpExecute), i(OpHalt)), ErrBadPC},
		{"i without loop", prog(i(OpI), i(OpHalt)), ErrRStackUnderflow},
		{"j shallow", prog(ia(OpLit, 1), i(OpToR), i(OpJ), i(OpHalt)), ErrRStackUnderflow},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := New(tt.code, 64)
			err := v.Run(10_000)
			if err == nil || !errors.Is(err, tt.want) {
				t.Errorf("Run error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestStepAfterHalt(t *testing.T) {
	v := run(t, prog(i(OpHalt)))
	if _, err := v.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestRunStepLimit(t *testing.T) {
	v := New(prog(ia(OpBranch, 0)), 0)
	if err := v.Run(100); err == nil {
		t.Error("infinite loop should exceed step limit")
	}
}

func TestEventKinds(t *testing.T) {
	code := prog(
		ia(OpLit, 1),     // 0: fall
		ia(OpZBranch, 3), // 1: not taken -> fall
		ia(OpCall, 5),    // 2: call
		ia(OpBranch, 6),  // 3 (unused target)
		i(OpNop),
		i(OpRet), // 5: return to 3
		i(OpHalt),
	)
	v := New(code, 0)
	wantKinds := []core.EventKind{core.EvFall, core.EvFall, core.EvCall, core.EvReturn, core.EvTaken, core.EvHalt}
	wantTo := []int{1, 2, 5, 3, 6, 6}
	for k := 0; !v.Done(); k++ {
		from := v.PC()
		ev, err := v.Step()
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if ev.Kind != wantKinds[k] || ev.To != wantTo[k] {
			t.Errorf("step %d: event = %v->%d kind %v, want ->%d kind %v",
				k, from, ev.To, ev.Kind, wantTo[k], wantKinds[k])
		}
	}
}

func TestISAMetaConsistency(t *testing.T) {
	isa := ISA()
	if isa.Name() != "forth" {
		t.Errorf("ISA name = %q", isa.Name())
	}
	for op := uint32(0); op < uint32(isa.NumOps()); op++ {
		m := isa.Meta(op)
		if m.Name == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if m.Work <= 0 {
			t.Errorf("opcode %s has non-positive work %d", m.Name, m.Work)
		}
		if m.Bytes <= 0 {
			t.Errorf("opcode %s has non-positive bytes %d", m.Name, m.Bytes)
		}
		if m.Quickable {
			t.Errorf("forth opcode %s must not be quickable", m.Name)
		}
	}
}

func TestISANamesUnique(t *testing.T) {
	isa := ISA()
	seen := map[string]uint32{}
	for op := uint32(0); op < uint32(isa.NumOps()); op++ {
		name := isa.Meta(op).Name
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, name)
		}
		seen[name] = op
	}
}

func TestMetaPanicsOnBadOpcode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Meta on bad opcode should panic")
		}
	}()
	ISA().Meta(NumOps + 17)
}

// Property: arithmetic ops match Go semantics for arbitrary operands.
func TestArithmeticMatchesGo(t *testing.T) {
	f := func(a, b int32) bool {
		v := run(t, prog(ia(OpLit, int64(a)), ia(OpLit, int64(b)), i(OpAdd),
			ia(OpLit, int64(a)), ia(OpLit, int64(b)), i(OpSub),
			ia(OpLit, int64(a)), ia(OpLit, int64(b)), i(OpMul),
			i(OpHalt)))
		s := v.Stack()
		return s[0] == int64(a)+int64(b) && s[1] == int64(a)-int64(b) && s[2] == int64(a)*int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: dup/drop round-trips leave the stack unchanged.
func TestDupDropIdentity(t *testing.T) {
	f := func(x int64) bool {
		v := run(t, prog(ia(OpLit, x), i(OpDup), i(OpDrop), i(OpHalt)))
		s := v.Stack()
		return len(s) == 1 && s[0] == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: swap twice is the identity.
func TestSwapInvolution(t *testing.T) {
	f := func(a, b int64) bool {
		v := run(t, prog(ia(OpLit, a), ia(OpLit, b), i(OpSwap), i(OpSwap), i(OpHalt)))
		s := v.Stack()
		return len(s) == 2 && s[0] == a && s[1] == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
