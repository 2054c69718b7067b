package forthvm

import (
	"errors"
	"fmt"
	"strconv"

	"vmopt/internal/core"
)

// Limits for the VM stacks; deliberately generous, overflow indicates
// a buggy program rather than a deep workload.
const (
	stackLimit  = 1 << 16
	rstackLimit = 1 << 16
)

// Common execution errors.
var (
	ErrStackUnderflow  = errors.New("forthvm: data stack underflow")
	ErrStackOverflow   = errors.New("forthvm: data stack overflow")
	ErrRStackUnderflow = errors.New("forthvm: return stack underflow")
	ErrRStackOverflow  = errors.New("forthvm: return stack overflow")
	ErrBadAddress      = errors.New("forthvm: memory address out of range")
	ErrBadPC           = errors.New("forthvm: instruction pointer out of range")
	ErrDivByZero       = errors.New("forthvm: division by zero")
	ErrHalted          = errors.New("forthvm: stepping a halted VM")
)

// VM is a running Forth VM process. It implements core.Process.
type VM struct {
	code   []core.Inst
	mem    []int64
	stack  []int64
	rstack []int64
	pc     int
	halted bool

	// Out receives bytes produced by emit and "." .
	Out []byte
	// Steps counts executed VM instructions.
	Steps uint64
}

// New creates a VM over the given code with memCells cells of zeroed
// data memory. Execution starts at position 0.
func New(code []core.Inst, memCells int) *VM {
	return &VM{
		code:   code,
		mem:    make([]int64, memCells),
		stack:  make([]int64, 0, 256),
		rstack: make([]int64, 0, 256),
	}
}

// ISA implements core.Process.
func (v *VM) ISA() core.ISA { return ISA() }

// Code implements core.Process.
func (v *VM) Code() []core.Inst { return v.code }

// PC implements core.Process.
func (v *VM) PC() int { return v.pc }

// Done implements core.Process.
func (v *VM) Done() bool { return v.halted }

// Stack returns a copy of the data stack, bottom first.
func (v *VM) Stack() []int64 {
	out := make([]int64, len(v.stack))
	copy(out, v.stack)
	return out
}

// Mem returns the data memory (live, not a copy).
func (v *VM) Mem() []int64 { return v.mem }

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
	// Returns next-on-stack a and top b for "a op b".
	if len(v.stack) < 2 {
		return 0, 0, ErrStackUnderflow
	}
	b = v.stack[len(v.stack)-1]
	a = v.stack[len(v.stack)-2]
	v.stack = v.stack[:len(v.stack)-2]
	return a, b, nil
}

func (v *VM) rpush(x int64) error {
	if len(v.rstack) >= rstackLimit {
		return ErrRStackOverflow
	}
	v.rstack = append(v.rstack, x)
	return nil
}

func (v *VM) rpop() (int64, error) {
	if len(v.rstack) == 0 {
		return 0, ErrRStackUnderflow
	}
	x := v.rstack[len(v.rstack)-1]
	v.rstack = v.rstack[:len(v.rstack)-1]
	return x, nil
}

func flag(b bool) int64 {
	if b {
		return -1
	}
	return 0
}

func (v *VM) checkAddr(a int64) error {
	if a < 0 || a >= int64(len(v.mem)) {
		return fmt.Errorf("%w: %d (mem size %d)", ErrBadAddress, a, len(v.mem))
	}
	return nil
}

// Step implements core.Process: it executes the instruction at PC and
// reports the resulting control transfer.
func (v *VM) Step() (core.Event, error) {
	if v.halted {
		return core.Event{}, ErrHalted
	}
	if v.pc < 0 || v.pc >= len(v.code) {
		return core.Event{}, fmt.Errorf("%w: %d", ErrBadPC, v.pc)
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

// Run steps until the VM halts or maxSteps is exceeded.
func (v *VM) Run(maxSteps uint64) error {
	for !v.halted {
		if v.Steps >= maxSteps {
			return fmt.Errorf("forthvm: exceeded %d steps", maxSteps)
		}
		if _, err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (v *VM) exec(in core.Inst, ev *core.Event) error {
	switch in.Op {
	case OpNop:
	case OpHalt:
		v.halted = true
		ev.Kind = core.EvHalt
		ev.To = v.pc

	case OpLit:
		return v.push(in.Arg)

	case OpDup:
		if len(v.stack) == 0 {
			return ErrStackUnderflow
		}
		return v.push(v.stack[len(v.stack)-1])
	case OpDrop:
		_, err := v.pop()
		return err
	case OpSwap:
		if len(v.stack) < 2 {
			return ErrStackUnderflow
		}
		n := len(v.stack)
		v.stack[n-1], v.stack[n-2] = v.stack[n-2], v.stack[n-1]
	case OpOver:
		if len(v.stack) < 2 {
			return ErrStackUnderflow
		}
		return v.push(v.stack[len(v.stack)-2])
	case OpRot:
		if len(v.stack) < 3 {
			return ErrStackUnderflow
		}
		n := len(v.stack)
		v.stack[n-3], v.stack[n-2], v.stack[n-1] = v.stack[n-2], v.stack[n-1], v.stack[n-3]
	case OpNip:
		a, b, err := v.pop2()
		_ = a
		if err != nil {
			return err
		}
		return v.push(b)
	case OpTuck:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		if err := v.push(b); err != nil {
			return err
		}
		if err := v.push(a); err != nil {
			return err
		}
		return v.push(b)
	case OpTwoDup:
		if len(v.stack) < 2 {
			return ErrStackUnderflow
		}
		n := len(v.stack)
		if err := v.push(v.stack[n-2]); err != nil {
			return err
		}
		return v.push(v.stack[n-1])
	case OpTwoDrop:
		if len(v.stack) < 2 {
			return ErrStackUnderflow
		}
		v.stack = v.stack[:len(v.stack)-2]
	case OpPick:
		n, err := v.pop()
		if err != nil {
			return err
		}
		if n < 0 || int(n) >= len(v.stack) {
			return ErrStackUnderflow
		}
		return v.push(v.stack[len(v.stack)-1-int(n)])
	case OpQDup:
		if len(v.stack) == 0 {
			return ErrStackUnderflow
		}
		if top := v.stack[len(v.stack)-1]; top != 0 {
			return v.push(top)
		}
	case OpDepth:
		return v.push(int64(len(v.stack)))

	case OpToR:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.rpush(x)
	case OpRFrom:
		x, err := v.rpop()
		if err != nil {
			return err
		}
		return v.push(x)
	case OpRFetch:
		if len(v.rstack) == 0 {
			return ErrRStackUnderflow
		}
		return v.push(v.rstack[len(v.rstack)-1])

	case OpAdd:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a + b)
	case OpSub:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a - b)
	case OpMul:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a * b)
	case OpDiv:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		if b == 0 {
			return ErrDivByZero
		}
		return v.push(a / b)
	case OpMod:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		if b == 0 {
			return ErrDivByZero
		}
		return v.push(a % b)
	case OpNegate:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(-x)
	case OpAbs:
		x, err := v.pop()
		if err != nil {
			return err
		}
		if x < 0 {
			x = -x
		}
		return v.push(x)
	case OpMin:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		if b < a {
			a = b
		}
		return v.push(a)
	case OpMax:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		if b > a {
			a = b
		}
		return v.push(a)
	case OpOnePlus:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(x + 1)
	case OpOneMinus:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(x - 1)
	case OpTwoStar:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(x << 1)
	case OpTwoSlash:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(x >> 1)
	case OpLshift:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a << uint64(b&63))
	case OpRshift:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(int64(uint64(a) >> uint64(b&63)))

	case OpAnd:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a & b)
	case OpOr:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a | b)
	case OpXor:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(a ^ b)
	case OpInvert:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(^x)

	case OpEq:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(a == b))
	case OpNe:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(a != b))
	case OpLt:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(a < b))
	case OpGt:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(a > b))
	case OpLe:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(a <= b))
	case OpGe:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(a >= b))
	case OpZeroEq:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(flag(x == 0))
	case OpZeroNe:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(flag(x != 0))
	case OpZeroLt:
		x, err := v.pop()
		if err != nil {
			return err
		}
		return v.push(flag(x < 0))
	case OpULt:
		a, b, err := v.pop2()
		if err != nil {
			return err
		}
		return v.push(flag(uint64(a) < uint64(b)))

	case OpFetch:
		a, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.checkAddr(a); err != nil {
			return err
		}
		return v.push(v.mem[a])
	case OpStore:
		a, err := v.pop()
		if err != nil {
			return err
		}
		x, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.checkAddr(a); err != nil {
			return err
		}
		v.mem[a] = x
	case OpCFetch:
		a, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.checkAddr(a); err != nil {
			return err
		}
		return v.push(v.mem[a] & 0xff)
	case OpCStore:
		a, err := v.pop()
		if err != nil {
			return err
		}
		x, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.checkAddr(a); err != nil {
			return err
		}
		v.mem[a] = x & 0xff
	case OpPlusStore:
		a, err := v.pop()
		if err != nil {
			return err
		}
		x, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.checkAddr(a); err != nil {
			return err
		}
		v.mem[a] += x

	case OpBranch:
		ev.Kind = core.EvTaken
		ev.To = int(in.Arg)
	case OpZBranch:
		x, err := v.pop()
		if err != nil {
			return err
		}
		if x == 0 {
			ev.Kind = core.EvTaken
			ev.To = int(in.Arg)
		}
	case OpCall:
		if err := v.rpush(int64(v.pc + 1)); err != nil {
			return err
		}
		ev.Kind = core.EvCall
		ev.To = int(in.Arg)
	case OpRet:
		r, err := v.rpop()
		if err != nil {
			return err
		}
		ev.Kind = core.EvReturn
		ev.To = int(r)
	case OpExecute:
		xt, err := v.pop()
		if err != nil {
			return err
		}
		if err := v.rpush(int64(v.pc + 1)); err != nil {
			return err
		}
		if xt < 0 || xt >= int64(len(v.code)) {
			return fmt.Errorf("%w: execute to %d", ErrBadPC, xt)
		}
		ev.Kind = core.EvIndirect
		ev.To = int(xt)

	case OpDo:
		start, limitV, err := func() (int64, int64, error) {
			l, s, err := v.pop2() // ( limit start -- ), start on top
			return s, l, err
		}()
		if err != nil {
			return err
		}
		if err := v.rpush(limitV); err != nil {
			return err
		}
		return v.rpush(start)
	case OpLoop:
		if len(v.rstack) < 2 {
			return ErrRStackUnderflow
		}
		idx := v.rstack[len(v.rstack)-1] + 1
		limit := v.rstack[len(v.rstack)-2]
		if idx < limit {
			v.rstack[len(v.rstack)-1] = idx
			ev.Kind = core.EvTaken
			ev.To = int(in.Arg)
		} else {
			v.rstack = v.rstack[:len(v.rstack)-2]
		}
	case OpPlusLoop:
		n, err := v.pop()
		if err != nil {
			return err
		}
		if len(v.rstack) < 2 {
			return ErrRStackUnderflow
		}
		idx := v.rstack[len(v.rstack)-1] + n
		limit := v.rstack[len(v.rstack)-2]
		cont := (n >= 0 && idx < limit) || (n < 0 && idx > limit)
		if cont {
			v.rstack[len(v.rstack)-1] = idx
			ev.Kind = core.EvTaken
			ev.To = int(in.Arg)
		} else {
			v.rstack = v.rstack[:len(v.rstack)-2]
		}
	case OpI:
		if len(v.rstack) < 1 {
			return ErrRStackUnderflow
		}
		return v.push(v.rstack[len(v.rstack)-1])
	case OpJ:
		if len(v.rstack) < 3 {
			return ErrRStackUnderflow
		}
		return v.push(v.rstack[len(v.rstack)-3])
	case OpUnloop:
		if len(v.rstack) < 2 {
			return ErrRStackUnderflow
		}
		v.rstack = v.rstack[:len(v.rstack)-2]

	case OpEmit:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.Out = append(v.Out, byte(x))
	case OpDot:
		x, err := v.pop()
		if err != nil {
			return err
		}
		v.Out = append(v.Out, strconv.FormatInt(x, 10)...)
		v.Out = append(v.Out, ' ')

	default:
		return fmt.Errorf("forthvm: unknown opcode %d", in.Op)
	}
	return nil
}
