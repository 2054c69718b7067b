// Package core implements the paper's primary contribution: the
// dispatch techniques of Casey, Ertl and Gregg — switch dispatch,
// threaded code, static and dynamic replication, static and dynamic
// superinstructions, and their combinations — as code-layout plans
// over a virtual machine program, together with the engine that
// executes a VM process under a plan on a simulated machine and
// collects the paper's hardware-counter metrics.
//
// The package is VM-agnostic: both the Forth VM (internal/forthvm)
// and the JVM subset (internal/jvm) compile programs to the flat
// []Inst representation and implement the Process interface.
package core

import "fmt"

// Inst is one virtual machine instruction in the flat VM code array:
// an opcode plus an optional immediate argument (literal value, branch
// target position, call target, and so on).
type Inst struct {
	Op  uint32
	Arg int64
}

// OpMeta describes the native-code implementation of one VM opcode:
// its cost model (native instructions and code bytes for the work
// part, excluding dispatch) and its control-flow classification.
type OpMeta struct {
	// Name is the mnemonic, e.g. "dup" or "getfield".
	Name string
	// HasArg reports whether the instruction carries an immediate.
	HasArg bool
	// Work is the native instruction count of the work part
	// (excluding the dispatch sequence).
	Work int
	// Bytes is the native code size of the work part in bytes.
	Bytes int
	// Relocatable reports whether the native code fragment can be
	// copied to a new address (paper Section 5.2); dynamic
	// techniques fall back to the shared original for
	// non-relocatable instructions.
	Relocatable bool
	// Quickable marks JVM-style instructions that rewrite
	// themselves into a quick variant on first execution
	// (Section 5.4).
	Quickable bool
	// QuickWork is the one-time native instruction cost of
	// quickening (resolution, verification, patching).
	QuickWork int
	// QuickBytesMax is the largest code size among the quick
	// variants this instruction can rewrite into; dynamic
	// techniques reserve a gap of this size (Section 5.4).
	QuickBytesMax int
	// Branch marks conditional or unconditional VM branches;
	// Call and Return mark VM calls/returns; Indirect marks VM
	// instructions whose target is data-dependent even under full
	// replication (computed calls, VM returns are marked Return
	// and are implicitly indirect).
	Branch   bool
	Call     bool
	Return   bool
	Indirect bool
	// Stop marks instructions that terminate execution (halt).
	Stop bool
}

// Control reports whether the instruction can transfer control
// (anything but straight-line fall-through).
func (m OpMeta) Control() bool {
	return m.Branch || m.Call || m.Return || m.Indirect || m.Stop
}

// SuperComponent reports whether the instruction may be a component of
// a superinstruction: it neither transfers control nor quickens.
func (m OpMeta) SuperComponent() bool {
	return !m.Control() && !m.Quickable
}

// ISA exposes the opcode metadata of a virtual machine.
type ISA interface {
	// Name identifies the VM, e.g. "forth" or "jvm".
	Name() string
	// NumOps returns the opcode-space size; valid opcodes are
	// 0..NumOps-1.
	NumOps() int
	// Meta returns the metadata for an opcode.
	Meta(op uint32) OpMeta
}

// EventKind classifies the control transfer performed by one executed
// VM instruction.
type EventKind uint8

const (
	// EvFall is sequential execution, including not-taken
	// conditional branches (no control transfer).
	EvFall EventKind = iota
	// EvTaken is a taken VM branch (conditional or unconditional).
	EvTaken
	// EvCall is a VM call.
	EvCall
	// EvReturn is a VM return; its target is data-dependent.
	EvReturn
	// EvIndirect is a computed VM control transfer (e.g. Forth
	// EXECUTE, JVM invokevirtual); data-dependent target.
	EvIndirect
	// EvHalt ends the program; no dispatch follows.
	EvHalt
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EvFall:
		return "fall"
	case EvTaken:
		return "taken"
	case EvCall:
		return "call"
	case EvReturn:
		return "return"
	case EvIndirect:
		return "indirect"
	case EvHalt:
		return "halt"
	default:
		return fmt.Sprintf("EventKind(%d)", k)
	}
}

// Event reports one executed VM instruction, the one at the PC before
// Step: the position control transferred to, how, and whether the
// instruction quickened itself (rewrote its opcode) as part of this
// execution.
//
// Event has four fields so that Go keeps a returned Event in registers:
// the compiler decomposes structs of at most four fields into SSA
// values, and spills larger ones through memory (see
// TestEventFitsInRegisters).
type Event struct {
	To        int
	Kind      EventKind
	Quickened bool
	// NewOp is the opcode installed at the executed position when
	// Quickened is true.
	NewOp uint32
}

// Process is a running VM program. Step executes the instruction at
// PC and reports the control transfer. Code returns the live VM code
// array; quickening mutates it in place.
type Process interface {
	ISA() ISA
	Code() []Inst
	PC() int
	Step() (Event, error)
	Done() bool
}
