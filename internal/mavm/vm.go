package mavm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Status describes an agent VM's lifecycle state.
type Status byte

// VM lifecycle states. Codes are part of the snapshot wire format.
const (
	// StatusReady means the VM can execute (fresh, resumed, or paused
	// by fuel exhaustion).
	StatusReady Status = iota
	// StatusMigrating means the VM suspended at a migrate() call;
	// MigrateTarget names the destination host.
	StatusMigrating
	// StatusDone means the program ran to completion.
	StatusDone
	// StatusFailed means a runtime error terminated the program.
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusReady:
		return "ready"
	case StatusMigrating:
		return "migrating"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

// Result is one deliver(key, value) entry the agent brings home.
type Result struct {
	Key   string
	Value Value
}

// Execution limits.
const (
	maxStackDepth = 8192
	maxFrameDepth = 200
	// DefaultFuel is the op budget for one Run slice; MAS hosts run
	// agents in fuel slices so retract/dispose can interrupt loops.
	DefaultFuel = 1_000_000
)

// ErrOutOfFuel is returned by Run when the slice budget is exhausted
// with the program still runnable.
var ErrOutOfFuel = errors.New("mavm: fuel exhausted")

// RuntimeError is a program-level failure with source position.
type RuntimeError struct {
	Fn   string
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("mavm: %s:%d: %s", e.Fn, e.Line, e.Msg)
	}
	return fmt.Sprintf("mavm: %s: %s", e.Fn, e.Msg)
}

// frame is one call-stack entry.
type frame struct {
	fn     int // index into prog.Functions
	pc     int
	locals []Value
}

// VM is a mobile agent's execution state over a Program.
type VM struct {
	prog *Program
	// AgentID identifies the agent across hosts.
	AgentID string
	// Params are the user parameters carried from the Packed
	// Information.
	Params map[string]Value
	// Results accumulates deliver() entries, each as it stood at its
	// deliver. A result shares no container with the agent's other
	// values once detached: before the agent can next change a
	// container (a mutating builtin or a service call) and whenever Run
	// suspends it. A finished VM's results may still share containers
	// with its globals, which nothing changes any more.
	Results []Result
	// detached counts the leading Results already detached.
	detached int
	// Hops counts completed migrations.
	Hops int
	// Steps counts ops executed over the agent's lifetime.
	Steps uint64

	globals       []Value
	frames        []frame
	stack         []Value
	status        Status
	migrateTarget string
	failMsg       string

	// host is bound per Run call, never serialised.
	host Host
}

// New creates a fresh VM at the entry point of prog.
func New(prog *Program, agentID string, params map[string]Value) (*VM, error) {
	if err := prog.validate(); err != nil {
		return nil, err
	}
	if params == nil {
		params = map[string]Value{}
	}
	vm := &VM{
		prog:    prog,
		AgentID: agentID,
		Params:  params,
		globals: make([]Value, len(prog.Globals)),
		status:  StatusReady,
	}
	vm.frames = append(vm.frames, frame{fn: 0, pc: 0, locals: make([]Value, prog.Functions[0].NumLocals)})
	return vm, nil
}

// Program returns the compiled program the VM executes.
func (vm *VM) Program() *Program { return vm.prog }

// Status returns the lifecycle state.
func (vm *VM) Status() Status { return vm.status }

// MigrateTarget returns the destination host while StatusMigrating.
func (vm *VM) MigrateTarget() string { return vm.migrateTarget }

// FailMsg returns the runtime error text after StatusFailed.
func (vm *VM) FailMsg() string { return vm.failMsg }

// ForceFail administratively terminates the VM (hop limits, policy
// kills): the status becomes StatusFailed with the given message, and
// results delivered so far remain available.
func (vm *VM) ForceFail(msg string) {
	vm.status = StatusFailed
	vm.migrateTarget = ""
	vm.failMsg = msg
}

// ClearMigration acknowledges an arrival: the MAS calls it after
// transferring the agent, flipping the state back to runnable and
// counting the hop.
func (vm *VM) ClearMigration() {
	if vm.status == StatusMigrating {
		vm.status = StatusReady
		vm.migrateTarget = ""
		vm.Hops++
	}
}

// Clone deep-copies the VM (the Aglets clone primitive). The clone
// shares the immutable Program but no mutable state. Cloning goes
// through the snapshot codec so aliasing and cycles in the value graph
// are preserved exactly.
func (vm *VM) Clone(newID string) (*VM, error) {
	snap, err := MarshalState(vm)
	if err != nil {
		return nil, err
	}
	out, err := UnmarshalState(vm.prog, snap)
	if err != nil {
		return nil, err
	}
	out.AgentID = newID
	return out, nil
}

// fail moves the VM to StatusFailed with a positioned error.
func (vm *VM) fail(msg string) error {
	fn, line := "?", 0
	if len(vm.frames) > 0 {
		f := vm.frames[len(vm.frames)-1]
		fun := vm.prog.Functions[f.fn]
		fn = fun.Name
		// The op that failed started before the current pc; search back
		// for the nearest recorded line.
		for i := f.pc; i >= 0 && i < len(fun.Lines); i-- {
			if fun.Lines[i] != 0 {
				line = int(fun.Lines[i])
				break
			}
		}
	}
	vm.status = StatusFailed
	err := &RuntimeError{Fn: fn, Line: line, Msg: msg}
	vm.failMsg = err.Error()
	return err
}

func (vm *VM) push(v Value) error {
	if len(vm.stack) >= maxStackDepth {
		return vm.fail("operand stack overflow")
	}
	vm.stack = append(vm.stack, v)
	return nil
}

func (vm *VM) pop() (Value, error) {
	if len(vm.stack) == 0 {
		return Nil(), vm.fail("operand stack underflow")
	}
	v := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	return v, nil
}

// Run executes up to fuel ops with the given host bound. It returns the
// resulting status. ErrOutOfFuel (with StatusReady) means the slice
// ended mid-program; call Run again to continue. Runtime errors return
// StatusFailed and the error.
func (vm *VM) Run(host Host, fuel uint64) (Status, error) {
	if vm.status != StatusReady {
		return vm.status, fmt.Errorf("mavm: Run on %v vm", vm.status)
	}
	if host == nil {
		return vm.status, errors.New("mavm: nil host")
	}
	vm.host = host
	defer func() { vm.host = nil }()

	for used := uint64(0); used < fuel; used++ {
		if len(vm.frames) == 0 {
			vm.status = StatusDone
			return vm.status, nil
		}
		f := &vm.frames[len(vm.frames)-1]
		fun := vm.prog.Functions[f.fn]
		if f.pc >= len(fun.Code) {
			// Fell off the end of a function body: implicit return nil.
			vm.frames = vm.frames[:len(vm.frames)-1]
			if len(vm.frames) == 0 {
				vm.status = StatusDone
				return vm.status, nil
			}
			if err := vm.push(Nil()); err != nil {
				return vm.status, err
			}
			continue
		}
		op := Op(fun.Code[f.pc])
		operands := fun.Code[f.pc+1:]
		f.pc += 1 + operandWidth(op)
		vm.Steps++

		if err := vm.step(op, operands, f); err != nil {
			return vm.status, err
		}
		if vm.migrateTarget != "" && vm.status == StatusReady {
			// A migrate() builtin executed: its nil return value is
			// already on the stack and pc points past the call, so the
			// snapshot resumes cleanly at the destination.
			vm.status = StatusMigrating
			vm.detach()
			return vm.status, nil
		}
		if vm.status == StatusDone {
			return vm.status, nil
		}
	}
	vm.detach()
	return vm.status, ErrOutOfFuel
}

// detach deep-copies the results delivered since the last detach, so
// that a change to a container they share with the agent leaves them
// as delivered. A suspended VM is detached: its snapshot holds results
// that share nothing, and UnmarshalState restores it detached.
func (vm *VM) detach() {
	for i := vm.detached; i < len(vm.Results); i++ {
		// deliver checked the depth, and nothing changed the value since.
		if v, err := vm.Results[i].Value.Clone(); err == nil {
			vm.Results[i].Value = v
		}
	}
	vm.detached = len(vm.Results)
}

// step executes a single decoded op. f is the current frame (pc already
// advanced past the operands).
func (vm *VM) step(op Op, operands []byte, f *frame) error {
	switch op {
	case OpHalt:
		vm.frames = vm.frames[:0]
		vm.status = StatusDone
		return nil

	case OpConst:
		return vm.push(vm.prog.Constants[binary.BigEndian.Uint16(operands)])
	case OpNil:
		return vm.push(Nil())
	case OpTrue:
		return vm.push(Bool(true))
	case OpFalse:
		return vm.push(Bool(false))

	case OpPop:
		_, err := vm.pop()
		return err
	case OpDup:
		if len(vm.stack) == 0 {
			return vm.fail("DUP on empty stack")
		}
		return vm.push(vm.stack[len(vm.stack)-1])

	case OpLoadGlobal:
		return vm.push(vm.globals[binary.BigEndian.Uint16(operands)])
	case OpStoreGlobal:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		vm.globals[binary.BigEndian.Uint16(operands)] = v
		return nil
	case OpLoadLocal:
		return vm.push(f.locals[binary.BigEndian.Uint16(operands)])
	case OpStoreLocal:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		f.locals[binary.BigEndian.Uint16(operands)] = v
		return nil

	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return vm.arith(op)
	case OpNeg:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		switch v.Kind() {
		case KindInt:
			return vm.push(Int(-v.AsInt()))
		case KindFloat:
			return vm.push(Float(-v.AsFloat()))
		default:
			return vm.fail(fmt.Sprintf("cannot negate %v", v.Kind()))
		}
	case OpNot:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		return vm.push(Bool(!v.Truthy()))

	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return vm.compare(op)

	case OpJump:
		f.pc = int(binary.BigEndian.Uint32(operands))
		return nil
	case OpJumpIfFalse:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		if !v.Truthy() {
			f.pc = int(binary.BigEndian.Uint32(operands))
		}
		return nil
	case OpJumpIfTrue:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		if v.Truthy() {
			f.pc = int(binary.BigEndian.Uint32(operands))
		}
		return nil

	case OpCall:
		fnIdx := int(binary.BigEndian.Uint16(operands))
		argc := int(operands[2])
		callee := vm.prog.Functions[fnIdx]
		if argc != callee.NumParams {
			return vm.fail(fmt.Sprintf("%s expects %d args, got %d", callee.Name, callee.NumParams, argc))
		}
		if len(vm.frames) >= maxFrameDepth {
			return vm.fail("call stack overflow")
		}
		if len(vm.stack) < argc {
			return vm.fail("operand stack underflow in call")
		}
		locals := make([]Value, callee.NumLocals)
		copy(locals, vm.stack[len(vm.stack)-argc:])
		vm.stack = vm.stack[:len(vm.stack)-argc]
		vm.frames = append(vm.frames, frame{fn: fnIdx, pc: 0, locals: locals})
		return nil

	case OpCallBuiltin:
		idx := int(binary.BigEndian.Uint16(operands))
		argc := int(operands[2])
		spec := builtinRegistry[idx]
		if argc < spec.minArgs || (spec.maxArgs >= 0 && argc > spec.maxArgs) {
			return vm.fail(fmt.Sprintf("%s: wrong argument count %d", spec.name, argc))
		}
		if len(vm.stack) < argc {
			return vm.fail("operand stack underflow in builtin call")
		}
		args := make([]Value, argc)
		copy(args, vm.stack[len(vm.stack)-argc:])
		vm.stack = vm.stack[:len(vm.stack)-argc]
		out, err := spec.fn(vm, args)
		if err != nil {
			return vm.fail(err.Error())
		}
		return vm.push(out)

	case OpReturn:
		v, err := vm.pop()
		if err != nil {
			return err
		}
		vm.frames = vm.frames[:len(vm.frames)-1]
		if len(vm.frames) == 0 {
			vm.status = StatusDone
			return nil
		}
		return vm.push(v)

	case OpMakeList:
		n := int(binary.BigEndian.Uint16(operands))
		if len(vm.stack) < n {
			return vm.fail("operand stack underflow in list literal")
		}
		items := make([]Value, n)
		copy(items, vm.stack[len(vm.stack)-n:])
		vm.stack = vm.stack[:len(vm.stack)-n]
		return vm.push(NewList(items...))

	case OpMakeMap:
		n := int(binary.BigEndian.Uint16(operands))
		if len(vm.stack) < 2*n {
			return vm.fail("operand stack underflow in map literal")
		}
		m := NewMap()
		base := len(vm.stack) - 2*n
		for i := 0; i < n; i++ {
			k, v := vm.stack[base+2*i], vm.stack[base+2*i+1]
			if k.Kind() != KindStr {
				return vm.fail(fmt.Sprintf("map key must be str, got %v", k.Kind()))
			}
			m.MapEntries()[k.AsStr()] = v
		}
		vm.stack = vm.stack[:base]
		return vm.push(m)

	case OpIndex:
		idx, err := vm.pop()
		if err != nil {
			return err
		}
		c, err := vm.pop()
		if err != nil {
			return err
		}
		return vm.index(c, idx)

	case OpSetIndex:
		val, err := vm.pop()
		if err != nil {
			return err
		}
		idx, err := vm.pop()
		if err != nil {
			return err
		}
		c, err := vm.pop()
		if err != nil {
			return err
		}
		return vm.setIndex(c, idx, val)

	default:
		return vm.fail(fmt.Sprintf("unknown opcode %v", op))
	}
}

func (vm *VM) arith(op Op) error {
	b, err := vm.pop()
	if err != nil {
		return err
	}
	a, err := vm.pop()
	if err != nil {
		return err
	}
	// String concatenation.
	if op == OpAdd && a.Kind() == KindStr && b.Kind() == KindStr {
		return vm.push(Str(a.AsStr() + b.AsStr()))
	}
	// List concatenation produces a fresh list.
	if op == OpAdd && a.Kind() == KindList && b.Kind() == KindList {
		items := make([]Value, 0, len(a.ListItems())+len(b.ListItems()))
		items = append(items, a.ListItems()...)
		items = append(items, b.ListItems()...)
		return vm.push(NewList(items...))
	}
	if !a.isNumber() || !b.isNumber() {
		return vm.fail(fmt.Sprintf("cannot %v %v and %v", op, a.Kind(), b.Kind()))
	}
	if a.Kind() == KindInt && b.Kind() == KindInt {
		x, y := a.AsInt(), b.AsInt()
		switch op {
		case OpAdd:
			return vm.push(Int(x + y))
		case OpSub:
			return vm.push(Int(x - y))
		case OpMul:
			return vm.push(Int(x * y))
		case OpDiv:
			if y == 0 {
				return vm.fail("integer division by zero")
			}
			return vm.push(Int(x / y))
		case OpMod:
			if y == 0 {
				return vm.fail("modulo by zero")
			}
			return vm.push(Int(x % y))
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case OpAdd:
		return vm.push(Float(x + y))
	case OpSub:
		return vm.push(Float(x - y))
	case OpMul:
		return vm.push(Float(x * y))
	case OpDiv:
		if y == 0 {
			return vm.fail("division by zero")
		}
		return vm.push(Float(x / y))
	case OpMod:
		return vm.fail("modulo needs integers")
	}
	return vm.fail("unreachable arithmetic")
}

func (vm *VM) compare(op Op) error {
	b, err := vm.pop()
	if err != nil {
		return err
	}
	a, err := vm.pop()
	if err != nil {
		return err
	}
	switch op {
	case OpEq:
		return vm.push(Bool(a.Equal(b)))
	case OpNe:
		return vm.push(Bool(!a.Equal(b)))
	}
	var less, eq bool
	switch {
	case a.isNumber() && b.isNumber():
		less, eq = a.AsFloat() < b.AsFloat(), a.AsFloat() == b.AsFloat()
	case a.Kind() == KindStr && b.Kind() == KindStr:
		less, eq = a.AsStr() < b.AsStr(), a.AsStr() == b.AsStr()
	default:
		return vm.fail(fmt.Sprintf("cannot order %v and %v", a.Kind(), b.Kind()))
	}
	switch op {
	case OpLt:
		return vm.push(Bool(less))
	case OpLe:
		return vm.push(Bool(less || eq))
	case OpGt:
		return vm.push(Bool(!less && !eq))
	case OpGe:
		return vm.push(Bool(!less))
	}
	return vm.fail("unreachable comparison")
}

func (vm *VM) index(c, idx Value) error {
	switch c.Kind() {
	case KindList:
		if idx.Kind() != KindInt {
			return vm.fail(fmt.Sprintf("list index must be int, got %v", idx.Kind()))
		}
		i := idx.AsInt()
		items := c.ListItems()
		if i < 0 || i >= int64(len(items)) {
			return vm.fail(fmt.Sprintf("list index %d out of range [0,%d)", i, len(items)))
		}
		return vm.push(items[i])
	case KindMap:
		if idx.Kind() != KindStr {
			return vm.fail(fmt.Sprintf("map key must be str, got %v", idx.Kind()))
		}
		if v, ok := c.MapEntries()[idx.AsStr()]; ok {
			return vm.push(v)
		}
		return vm.push(Nil())
	case KindStr:
		if idx.Kind() != KindInt {
			return vm.fail(fmt.Sprintf("string index must be int, got %v", idx.Kind()))
		}
		i := idx.AsInt()
		s := c.AsStr()
		if i < 0 || i >= int64(len(s)) {
			return vm.fail(fmt.Sprintf("string index %d out of range [0,%d)", i, len(s)))
		}
		return vm.push(Str(s[i : i+1]))
	default:
		return vm.fail(fmt.Sprintf("cannot index %v", c.Kind()))
	}
}

func (vm *VM) setIndex(c, idx, val Value) error {
	switch c.Kind() {
	case KindList:
		if idx.Kind() != KindInt {
			return vm.fail(fmt.Sprintf("list index must be int, got %v", idx.Kind()))
		}
		i := idx.AsInt()
		items := c.ListItems()
		if i < 0 || i >= int64(len(items)) {
			return vm.fail(fmt.Sprintf("list index %d out of range [0,%d)", i, len(items)))
		}
		vm.detach()
		c.list.Items[i] = val
		return nil
	case KindMap:
		if idx.Kind() != KindStr {
			return vm.fail(fmt.Sprintf("map key must be str, got %v", idx.Kind()))
		}
		vm.detach()
		c.MapEntries()[idx.AsStr()] = val
		return nil
	default:
		return vm.fail(fmt.Sprintf("cannot assign into %v", c.Kind()))
	}
}
