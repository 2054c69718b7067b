package core_test

import (
	"reflect"
	"testing"
	"unsafe"

	"vmopt/internal/core"
)

// TestEventFitsInRegisters guards the size of the value every
// Process.Step returns, once per VM instruction. The Go compiler keeps
// a struct in SSA registers only if it has at most four fields and
// spans at most four words; a larger one goes through memory. When
// Event had a fifth field (the executed position), core.Run copied each
// returned Event off the stack with one 16-byte load right after the
// callee's byte-sized stores, which cannot be forwarded from the store
// buffer: that one instruction took 10% of the CPU profile of a direct
// simulation of gray/plain at scalediv 10.
func TestEventFitsInRegisters(t *testing.T) {
	typ := reflect.TypeOf(core.Event{})
	if n := typ.NumField(); n > 4 {
		t.Errorf("core.Event has %d fields; at most 4 stay in registers", n)
	}
	if size, max := typ.Size(), 4*unsafe.Sizeof(uintptr(0)); size > max {
		t.Errorf("core.Event is %d bytes; at most %d stay in registers", size, max)
	}
}
