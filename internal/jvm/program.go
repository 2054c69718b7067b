package jvm

import (
	"fmt"

	"vmopt/internal/core"
)

// Class describes an object layout and its virtual dispatch table.
type Class struct {
	// ID is the class's index in Program.Classes.
	ID int
	// Name is the class name.
	Name string
	// Fields lists field names; a field's offset is its index.
	Fields []string
	// VTable maps virtual slot -> method ID for methods this class
	// implements.
	VTable map[int]int
}

// FieldOffset returns the offset of a field, or -1.
func (c *Class) FieldOffset(name string) int {
	for k, f := range c.Fields {
		if f == name {
			return k
		}
	}
	return -1
}

// Method describes one method.
type Method struct {
	// ID is the method's index in Program.Methods.
	ID int
	// Name is the qualified name "Class.method".
	Name string
	// Class is the declaring class (may be nil for static methods
	// of a pure namespace).
	Class *Class
	// Virtual methods dispatch through the receiver's vtable; their
	// receiver is local 0 and counts toward NumArgs.
	Virtual bool
	// VSlot is the virtual dispatch slot (-1 for static methods).
	VSlot int
	// NumArgs and NumLocals size the frame.
	NumArgs   int
	NumLocals int
	// Entry and End delimit the method body in Program.Code.
	Entry, End int
}

// FieldRef is a symbolic field reference, resolved during quickening.
type FieldRef struct {
	ClassName string
	FieldName string
}

// Program is an assembled JVM program.
type Program struct {
	// Code is the pristine flattened bytecode; VMs copy it before
	// executing because quickening rewrites it in place.
	Code []core.Inst
	// Classes, Methods index the declared entities by ID.
	Classes []*Class
	Methods []*Method
	// FieldRefs holds the symbolic operands of getfield/putfield.
	FieldRefs []FieldRef
	// StaticNames holds declared statics; a static's slot is its
	// index.
	StaticNames []string
	// VNames holds virtual method simple names; a name's vslot is
	// its index.
	VNames []string
	// vslotArgs caches the argument count per virtual slot (all
	// implementations of a slot share a signature).
	vslotArgs []int
	// Main is the entry method.
	Main *Method

	classByName  map[string]*Class
	methodByName map[string]*Method
}

// ClassByName returns the class with the given name.
func (p *Program) ClassByName(name string) (*Class, bool) {
	c, ok := p.classByName[name]
	return c, ok
}

// EntryPoints returns all method entry positions: the extra leaders
// for basic-block analysis (calls and returns may target them through
// data-dependent dispatch).
func (p *Program) EntryPoints() []int {
	out := make([]int, 0, len(p.Methods))
	for _, m := range p.Methods {
		out = append(out, m.Entry)
	}
	return out
}

// resolveField resolves a field reference against the class table.
func (p *Program) resolveField(ref int64) (offset int, err error) {
	if ref < 0 || int(ref) >= len(p.FieldRefs) {
		return 0, fmt.Errorf("jvm: bad field ref %d", ref)
	}
	fr := p.FieldRefs[ref]
	c, ok := p.classByName[fr.ClassName]
	if !ok {
		return 0, fmt.Errorf("jvm: unknown class %q in field ref", fr.ClassName)
	}
	off := c.FieldOffset(fr.FieldName)
	if off < 0 {
		return 0, fmt.Errorf("jvm: class %s has no field %q", fr.ClassName, fr.FieldName)
	}
	return off, nil
}
