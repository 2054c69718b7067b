package jvm

import (
	"errors"
	"fmt"
	"strconv"

	"vmopt/internal/core"
)

// Execution limits and errors.
const (
	stackLimit = 1 << 16
	frameLimit = 1 << 14
	heapLimit  = 1 << 26 // cells
)

var (
	ErrStackUnderflow = errors.New("jvm: operand stack underflow")
	ErrStackOverflow  = errors.New("jvm: operand stack overflow")
	ErrFrameOverflow  = errors.New("jvm: call stack overflow")
	ErrNullPointer    = errors.New("jvm: null reference")
	ErrBounds         = errors.New("jvm: array index out of bounds")
	ErrDivByZero      = errors.New("jvm: division by zero")
	ErrOutOfMemory    = errors.New("jvm: heap exhausted")
	ErrHalted         = errors.New("jvm: stepping a halted VM")
)

type frame struct {
	retPC  int
	locals []int64
}

// VM is a running JVM process over an assembled Program. It
// implements core.Process.
type VM struct {
	prog    *Program
	code    []core.Inst // private copy; quickening mutates it
	stack   []int64
	frames  []frame
	heap    []int64
	statics []int64
	pc      int
	halted  bool

	// Out receives iprint/cprint output.
	Out []byte
	// Steps counts executed VM instructions.
	Steps uint64
}

// NewVM instantiates a process for the program, positioned at main.
func NewVM(p *Program) *VM {
	v := &VM{
		prog:    p,
		code:    append([]core.Inst(nil), p.Code...),
		heap:    make([]int64, 1, 4096), // slot 0 reserved: ref 0 is null
		statics: make([]int64, len(p.StaticNames)),
		pc:      p.Main.Entry,
	}
	v.frames = append(v.frames, frame{retPC: -1, locals: make([]int64, p.Main.NumLocals)})
	return v
}

// ISA implements core.Process.
func (v *VM) ISA() core.ISA { return ISA() }

// Code implements core.Process.
func (v *VM) Code() []core.Inst { return v.code }

// PC implements core.Process.
func (v *VM) PC() int { return v.pc }

// Done implements core.Process.
func (v *VM) Done() bool { return v.halted }

// Stack returns a copy of the operand stack.
func (v *VM) Stack() []int64 { return append([]int64(nil), v.stack...) }

// Run steps the VM to completion, bounded by maxSteps.
func (v *VM) Run(maxSteps uint64) error {
	for !v.halted {
		if v.Steps >= maxSteps {
			return fmt.Errorf("jvm: exceeded %d steps", maxSteps)
		}
		if _, err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (v *VM) push(x int64) error {
	if len(v.stack) >= stackLimit {
		return ErrStackOverflow
	}
	v.stack = append(v.stack, x)
	return nil
}

func (v *VM) pop() (int64, error) {
	if len(v.stack) == 0 {
		return 0, ErrStackUnderflow
	}
	x := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return x, nil
}

func (v *VM) pop2() (a, b int64, err error) {
	if len(v.stack) < 2 {
		return 0, 0, ErrStackUnderflow
	}
	b = v.stack[len(v.stack)-1]
	a = v.stack[len(v.stack)-2]
	v.stack = v.stack[:len(v.stack)-2]
	return a, b, nil
}

func (v *VM) locals() []int64 { return v.frames[len(v.frames)-1].locals }

// alloc reserves cells on the heap and returns the object reference
// (index of the header cell).
func (v *VM) alloc(cells int) (int64, error) {
	if len(v.heap)+cells > heapLimit {
		return 0, ErrOutOfMemory
	}
	ref := int64(len(v.heap))
	v.heap = append(v.heap, make([]int64, cells)...)
	return ref, nil
}

func (v *VM) checkRef(ref int64) error {
	if ref == 0 {
		return ErrNullPointer
	}
	if ref < 0 || ref >= int64(len(v.heap)) {
		return fmt.Errorf("%w: ref %d", ErrNullPointer, ref)
	}
	return nil
}

func (v *VM) arrayAt(ref, idx int64) (int, error) {
	if err := v.checkRef(ref); err != nil {
		return 0, err
	}
	length := v.heap[ref]
	if idx < 0 || idx >= length {
		return 0, fmt.Errorf("%w: index %d, length %d", ErrBounds, idx, length)
	}
	return int(ref + 1 + idx), nil
}

// call pushes a frame for m, popping its arguments into locals.
func (v *VM) call(m *Method, retPC int) error {
	if len(v.frames) >= frameLimit {
		return ErrFrameOverflow
	}
	if len(v.stack) < m.NumArgs {
		return ErrStackUnderflow
	}
	locals := make([]int64, m.NumLocals)
	base := len(v.stack) - m.NumArgs
	copy(locals, v.stack[base:])
	v.stack = v.stack[:base]
	v.frames = append(v.frames, frame{retPC: retPC, locals: locals})
	return nil
}

// Step implements core.Process.
func (v *VM) Step() (core.Event, error) {
	if v.halted {
		return core.Event{}, ErrHalted
	}
	if v.pc < 0 || v.pc >= len(v.code) {
		return core.Event{}, fmt.Errorf("jvm: pc %d out of range", v.pc)
	}
	from := v.pc
	in := v.code[from]
	v.Steps++
	ev := core.Event{To: from + 1, Kind: core.EvFall}
	err := v.exec(in, &ev)
	if err != nil {
		return core.Event{}, fmt.Errorf("at %d (%s): %w", from, OpName(in.Op), err)
	}
	v.pc = ev.To
	return ev, nil
}

// quicken rewrites the executing instruction and marks the event.
func (v *VM) quicken(ev *core.Event, newOp uint32, newArg int64) {
	v.code[v.pc] = core.Inst{Op: newOp, Arg: newArg}
	ev.Quickened = true
	ev.NewOp = newOp
}

func (v *VM) exec(in core.Inst, ev *core.Event) error {
	switch in.Op {
	case OpNop:

	case OpIconst:
		return v.push(in.Arg)

	case OpIload:
		return v.push(v.locals()[in.Arg])
	case OpIload0, OpIload1, OpIload2, OpIload3:
		return v.push(v.locals()[in.Op-OpIload0])
	case OpIstore:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.locals()[in.Arg] = x
	case OpIstore0, OpIstore1, OpIstore2, OpIstore3:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.locals()[in.Op-OpIstore0] = x
	case OpIinc:
		idx, delta := DecodeIinc(in.Arg)
		v.locals()[idx] += int64(delta)

	case OpDup:
		if len(v.stack) == 0 {
			return ErrStackUnderflow
		}
		return v.push(v.stack[len(v.stack)-1])
	case OpDupX1:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		for _, x := range []int64{b, a, b} {
			if err := v.push(x); err != nil {
				return err
			}
		}
	case OpPop:
		_, err := v.pop()
		return err
	case OpSwap:
		if len(v.stack) < 2 {
			return ErrStackUnderflow
		}
		n := len(v.stack)
		v.stack[n-1], v.stack[n-2] = v.stack[n-2], v.stack[n-1]

	case OpIadd, OpIsub, OpImul, OpIdiv, OpIrem, OpIshl, OpIshr, OpIushr, OpIand, OpIor, OpIxor:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		var r int64
		switch in.Op {
		case OpIadd:
			r = a + b
		case OpIsub:
			r = a - b
		case OpImul:
			r = a * b
		case OpIdiv:
			if b == 0 {
				return ErrDivByZero
			}
			r = a / b
		case OpIrem:
			if b == 0 {
				return ErrDivByZero
			}
			r = a % b
		case OpIshl:
			r = a << uint64(b&63)
		case OpIshr:
			r = a >> uint64(b&63)
		case OpIushr:
			r = int64(uint64(a) >> uint64(b&63))
		case OpIand:
			r = a & b
		case OpIor:
			r = a | b
		case OpIxor:
			r = a ^ b
		}
		return v.push(r)
	case OpIneg:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(-x)

	case OpIfeq, OpIfne, OpIflt, OpIfge, OpIfgt, OpIfle:
		x, err := v.pop()
		if err != nil {
			return err
		}
		var taken bool
		switch in.Op {
		case OpIfeq:
			taken = x == 0
		case OpIfne:
			taken = x != 0
		case OpIflt:
			taken = x < 0
		case OpIfge:
			taken = x >= 0
		case OpIfgt:
			taken = x > 0
		case OpIfle:
			taken = x <= 0
		}
		if taken {
			ev.Kind = core.EvTaken
			ev.To = int(in.Arg)
		}
	case OpIfIcmpeq, OpIfIcmpne, OpIfIcmplt, OpIfIcmpge, OpIfIcmpgt, OpIfIcmple:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		var taken bool
		switch in.Op {
		case OpIfIcmpeq:
			taken = a == b
		case OpIfIcmpne:
			taken = a != b
		case OpIfIcmplt:
			taken = a < b
		case OpIfIcmpge:
			taken = a >= b
		case OpIfIcmpgt:
			taken = a > b
		case OpIfIcmple:
			taken = a <= b
		}
		if taken {
			ev.Kind = core.EvTaken
			ev.To = int(in.Arg)
		}
	case OpGoto:
		ev.Kind = core.EvTaken
		ev.To = int(in.Arg)

	case OpNewarray:
		n, err := v.pop()
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("%w: negative array size %d", ErrBounds, n)
		}
		ref, err := v.alloc(int(n) + 1)
		if err != nil {
			return err
		}
		v.heap[ref] = n
		return v.push(ref)
	case OpIaload, OpBaload:
		ref, idx, err := v.pop2()
		if err != nil {
			return err
		}
		at, err := v.arrayAt(ref, idx)
		if err != nil {
			return err
		}
		x := v.heap[at]
		if in.Op == OpBaload {
			x &= 0xff
		}
		return v.push(x)
	case OpIastore, OpBastore:
		x, err := v.pop()
		if err != nil {
			return err
		}
		ref, idx, err := v.pop2()
		if err != nil {
			return err
		}
		at, err := v.arrayAt(ref, idx)
		if err != nil {
			return err
		}
		if in.Op == OpBastore {
			x &= 0xff
		}
		v.heap[at] = x
	case OpArraylength:
		ref, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.checkRef(ref); err != nil {
			return err
		}
		return v.push(v.heap[ref])

	case OpNew:
		if in.Arg < 0 || int(in.Arg) >= len(v.prog.Classes) {
			return fmt.Errorf("jvm: bad class id %d", in.Arg)
		}
		v.quicken(ev, OpNewQuick, in.Arg)
		return v.execNew(in.Arg)
	case OpNewQuick:
		return v.execNew(in.Arg)

	case OpGetfield:
		off, err := v.prog.resolveField(in.Arg)
		if err != nil {
			return err
		}
		v.quicken(ev, OpGetfieldQuick, int64(off))
		return v.execGetfield(int64(off))
	case OpGetfieldQuick:
		return v.execGetfield(in.Arg)
	case OpPutfield:
		off, err := v.prog.resolveField(in.Arg)
		if err != nil {
			return err
		}
		v.quicken(ev, OpPutfieldQuick, int64(off))
		return v.execPutfield(int64(off))
	case OpPutfieldQuick:
		return v.execPutfield(in.Arg)

	case OpGetstatic:
		if in.Arg < 0 || int(in.Arg) >= len(v.statics) {
			return fmt.Errorf("jvm: bad static ref %d", in.Arg)
		}
		v.quicken(ev, OpGetstaticQ, in.Arg)
		return v.push(v.statics[in.Arg])
	case OpGetstaticQ:
		return v.push(v.statics[in.Arg])
	case OpPutstatic:
		if in.Arg < 0 || int(in.Arg) >= len(v.statics) {
			return fmt.Errorf("jvm: bad static ref %d", in.Arg)
		}
		v.quicken(ev, OpPutstaticQ, in.Arg)
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.statics[in.Arg] = x
	case OpPutstaticQ:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.statics[in.Arg] = x

	case OpInvokestatic:
		if in.Arg < 0 || int(in.Arg) >= len(v.prog.Methods) {
			return fmt.Errorf("jvm: bad method id %d", in.Arg)
		}
		v.quicken(ev, OpInvokestaticQ, in.Arg)
		return v.execInvokestatic(in.Arg, ev)
	case OpInvokestaticQ:
		return v.execInvokestatic(in.Arg, ev)

	case OpInvokevirtual:
		if in.Arg < 0 || int(in.Arg) >= len(v.prog.VNames) {
			return fmt.Errorf("jvm: bad virtual slot %d", in.Arg)
		}
		v.quicken(ev, OpInvokevirtualQ, in.Arg)
		return v.execInvokevirtual(in.Arg, ev)
	case OpInvokevirtualQ:
		return v.execInvokevirtual(in.Arg, ev)

	case OpReturn, OpIreturn:
		var ret int64
		if in.Op == OpIreturn {
			x, err := v.pop()
			if err != nil {
				return err
			}
			ret = x
		}
		f := v.frames[len(v.frames)-1]
		v.frames = v.frames[:len(v.frames)-1]
		if len(v.frames) == 0 {
			v.halted = true
			ev.Kind = core.EvHalt
			ev.To = v.pc
			if in.Op == OpIreturn {
				// Main's return value lands on the operand stack.
				return v.push(ret)
			}
			return nil
		}
		ev.Kind = core.EvReturn
		ev.To = f.retPC
		if in.Op == OpIreturn {
			return v.push(ret)
		}

	case OpIprint:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.Out = append(v.Out, strconv.FormatInt(x, 10)...)
		v.Out = append(v.Out, ' ')
	case OpCprint:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.Out = append(v.Out, byte(x))

	default:
		return fmt.Errorf("jvm: unknown opcode %d", in.Op)
	}
	return nil
}

func (v *VM) execNew(classID int64) error {
	c := v.prog.Classes[classID]
	ref, err := v.alloc(len(c.Fields) + 1)
	if err != nil {
		return err
	}
	v.heap[ref] = classID
	return v.push(ref)
}

func (v *VM) execGetfield(off int64) error {
	ref, err := v.pop()
	if err != nil {
		return err
	}
	if err := v.checkRef(ref); err != nil {
		return err
	}
	return v.push(v.heap[ref+1+off])
}

func (v *VM) execPutfield(off int64) error {
	x, err := v.pop()
	if err != nil {
		return err
	}
	ref, err := v.pop()
	if err != nil {
		return err
	}
	if err := v.checkRef(ref); err != nil {
		return err
	}
	v.heap[ref+1+off] = x
	return nil
}

func (v *VM) execInvokestatic(id int64, ev *core.Event) error {
	m := v.prog.Methods[id]
	if err := v.call(m, v.pc+1); err != nil {
		return err
	}
	ev.Kind = core.EvCall
	ev.To = m.Entry
	return nil
}

func (v *VM) execInvokevirtual(vslot int64, ev *core.Event) error {
	// The receiver sits below the other arguments; we need the
	// target's arg count to find it, but all methods in a slot share
	// a signature, so resolve through any class first via the
	// receiver itself: peek conservatively by scanning.
	// Receiver position requires NumArgs; look it up from the first
	// class implementing the slot.
	m, recv, err := v.resolveVirtual(int(vslot))
	if err != nil {
		return err
	}
	_ = recv
	if err := v.call(m, v.pc+1); err != nil {
		return err
	}
	ev.Kind = core.EvIndirect
	ev.To = m.Entry
	return nil
}

// resolveVirtual finds the target method for a vslot given the
// receiver on the stack.
func (v *VM) resolveVirtual(vslot int) (*Method, int64, error) {
	// All methods sharing a vslot have the same NumArgs.
	nargs := v.prog.vslotArgs[vslot]
	if nargs < 0 {
		return nil, 0, fmt.Errorf("jvm: no method for virtual slot %d", vslot)
	}
	if len(v.stack) < nargs {
		return nil, 0, ErrStackUnderflow
	}
	recv := v.stack[len(v.stack)-nargs]
	if err := v.checkRef(recv); err != nil {
		return nil, 0, err
	}
	classID := v.heap[recv]
	if classID < 0 || int(classID) >= len(v.prog.Classes) {
		return nil, 0, fmt.Errorf("jvm: receiver %d has bad class id %d", recv, classID)
	}
	c := v.prog.Classes[classID]
	mid, ok := c.VTable[vslot]
	if !ok {
		return nil, 0, fmt.Errorf("jvm: class %s does not implement %q", c.Name, v.prog.VNames[vslot])
	}
	return v.prog.Methods[mid], recv, nil
}
