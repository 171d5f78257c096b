// Package mavm is the mobile-agent virtual machine: a small, strictly
// serialisable bytecode interpreter whose entire execution state —
// globals, call frames, operand stack, accumulated results — can be
// snapshotted at an instruction boundary, shipped to another host, and
// resumed there.
//
// This is the repository's substitute for Java bytecode mobility (see
// DESIGN.md §2): Go cannot load code at runtime, so agent code travels
// as a compiled mavm Program and agent migration is a VM snapshot. The
// paper itself proposes exactly this style of "standard MA code format
// ... understood and interpreted by gateways and different MA servers".
package mavm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types of MAScript values.
type Kind byte

// Value kinds. The numeric codes are part of the snapshot wire format
// and must not be renumbered.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindStr
	KindList
	KindMap
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindStr:
		return "str"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Value is one MAScript value. Lists and maps have reference semantics
// (mutating a list reached through two variables is visible through
// both), matching the language definition.
type Value struct {
	kind Kind
	// n is a bool's 0 or 1, an int's two's complement or a float's
	// IEEE 754 bits: one word for the three scalar kinds.
	n    uint64
	s    string
	list *List
	m    *Map
}

// List is the backing store of a list value.
type List struct {
	Items []Value
}

// Map is the backing store of a map value. Iteration order is sorted by
// key so agent execution is deterministic everywhere.
type Map struct {
	Entries map[string]Value
}

// Constructors.

// Nil returns the nil value.
func Nil() Value { return Value{kind: KindNil} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindStr, s: s} }

// NewList returns a fresh list value holding items.
func NewList(items ...Value) Value {
	return Value{kind: KindList, list: &List{Items: items}}
}

// NewMap returns a fresh empty map value.
func NewMap() Value {
	return Value{kind: KindMap, m: &Map{Entries: make(map[string]Value)}}
}

// Accessors.

// Kind returns the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsBool returns the boolean payload (valid only for KindBool).
func (v Value) AsBool() bool { return v.n != 0 }

// AsInt returns the integer payload (valid only for KindInt).
func (v Value) AsInt() int64 { return int64(v.n) }

// AsFloat returns the float payload, converting from int if needed.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(int64(v.n))
	}
	return math.Float64frombits(v.n)
}

// AsStr returns the string payload (valid only for KindStr).
func (v Value) AsStr() string { return v.s }

// ListItems returns the backing slice of a list value, or nil.
func (v Value) ListItems() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.list.Items
}

// MapEntries returns the backing map of a map value, or nil.
func (v Value) MapEntries() map[string]Value {
	if v.kind != KindMap {
		return nil
	}
	return v.m.Entries
}

// MapKeys returns the map's keys in sorted order.
func (v Value) MapKeys() []string {
	if v.kind != KindMap {
		return nil
	}
	keys := make([]string, 0, len(v.m.Entries))
	for k := range v.m.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Truthy implements MAScript truthiness: nil and false are falsy,
// everything else (including 0 and "") is truthy.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNil:
		return false
	case KindBool:
		return v.n != 0
	default:
		return true
	}
}

// isNumber reports whether the value is int or float.
func (v Value) isNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal is MAScript's == : numbers compare across int/float, lists and
// maps compare deeply.
func (v Value) Equal(o Value) bool {
	if v.isNumber() && o.isNumber() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.n == o.n
		}
		return v.AsFloat() == o.AsFloat()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindBool:
		return v.n == o.n
	case KindStr:
		return v.s == o.s
	case KindList:
		if len(v.list.Items) != len(o.list.Items) {
			return false
		}
		for i := range v.list.Items {
			if !v.list.Items[i].Equal(o.list.Items[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.m.Entries) != len(o.m.Entries) {
			return false
		}
		for k, a := range v.m.Entries {
			b, ok := o.m.Entries[k]
			if !ok || !a.Equal(b) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// String renders the value for log output and result documents.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindBool:
		return strconv.FormatBool(v.AsBool())
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		f := v.AsFloat()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindStr:
		return v.s
	case KindList:
		var b strings.Builder
		b.WriteByte('[')
		for i, it := range v.list.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.quoted())
		}
		b.WriteByte(']')
		return b.String()
	case KindMap:
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range v.MapKeys() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Quote(k))
			b.WriteString(": ")
			b.WriteString(v.m.Entries[k].quoted())
		}
		b.WriteByte('}')
		return b.String()
	default:
		return "?"
	}
}

// quoted renders like String but quotes strings, for container display.
func (v Value) quoted() string {
	if v.kind == KindStr {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// maxValueDepth bounds Clone and snapshot recursion so cyclic values
// fail cleanly instead of overflowing the stack.
const maxValueDepth = 64

// ErrValueTooDeep is reported when cloning or serialising values nested
// (or self-referencing) beyond maxValueDepth.
var ErrValueTooDeep = fmt.Errorf("mavm: value nesting exceeds %d (cyclic?)", maxValueDepth)

// Clone deep-copies a value; list and map copies are detached from the
// originals. It fails on values deeper than maxValueDepth.
func (v Value) Clone() (Value, error) {
	return v.cloneDepth(0)
}

// checkDepth fails as Clone does on a value nested deeper than
// maxValueDepth, and copies nothing.
func (v Value) checkDepth(depth int) error {
	if depth > maxValueDepth {
		return ErrValueTooDeep
	}
	switch v.kind {
	case KindList:
		for _, it := range v.list.Items {
			if err := it.checkDepth(depth + 1); err != nil {
				return err
			}
		}
	case KindMap:
		for _, it := range v.m.Entries {
			if err := it.checkDepth(depth + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (v Value) cloneDepth(depth int) (Value, error) {
	if depth > maxValueDepth {
		return Nil(), ErrValueTooDeep
	}
	switch v.kind {
	case KindList:
		items := make([]Value, len(v.list.Items))
		for i, it := range v.list.Items {
			c, err := it.cloneDepth(depth + 1)
			if err != nil {
				return Nil(), err
			}
			items[i] = c
		}
		return NewList(items...), nil
	case KindMap:
		out := NewMap()
		for k, it := range v.m.Entries {
			c, err := it.cloneDepth(depth + 1)
			if err != nil {
				return Nil(), err
			}
			out.m.Entries[k] = c
		}
		return out, nil
	default:
		return v, nil
	}
}
