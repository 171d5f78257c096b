package mavm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// asm assembles a single-function test program from (op, operands...)
// tuples, registering constants and globals as given.
func asm(consts []Value, globals []string, ops ...[]int) *Program {
	fn := &Function{Name: "main"}
	for _, o := range ops {
		op := Op(o[0])
		fn.Code = append(fn.Code, byte(op))
		switch operandWidth(op) {
		case 2:
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], uint16(o[1]))
			fn.Code = append(fn.Code, b[:]...)
		case 3:
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], uint16(o[1]))
			fn.Code = append(fn.Code, b[:]...)
			fn.Code = append(fn.Code, byte(o[2]))
		case 4:
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(o[1]))
			fn.Code = append(fn.Code, b[:]...)
		}
	}
	fn.Lines = make([]int32, len(fn.Code))
	return &Program{Constants: consts, Globals: globals, Functions: []*Function{fn}}
}

// testHost is a scriptable Host for VM tests.
type testHost struct {
	name, home string
	services   map[string]func(args []Value) (Value, error)
	logs       []string
}

func newTestHost(name string) *testHost {
	return &testHost{name: name, home: "gw-home", services: map[string]func([]Value) (Value, error){}}
}

func (h *testHost) HostName() string { return h.name }
func (h *testHost) HomeAddr() string { return h.home }
func (h *testHost) CallService(name string, args []Value) (Value, error) {
	if fn, ok := h.services[name]; ok {
		return fn(args)
	}
	return Nil(), fmt.Errorf("no service %q at %s", name, h.name)
}
func (h *testHost) Log(agentID, msg string) {
	h.logs = append(h.logs, agentID+": "+msg)
}

func mustRun(t *testing.T, p *Program, params map[string]Value) *VM {
	t.Helper()
	vm, err := New(p, "agent-1", params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := vm.Run(newTestHost("host-a"), DefaultFuel)
	if err != nil {
		t.Fatalf("Run: %v (status %v)", err, st)
	}
	if st != StatusDone {
		t.Fatalf("status = %v, want done", st)
	}
	return vm
}

func TestArithmeticOps(t *testing.T) {
	// Compute (2+3)*4 - 6/2 = 17 and deliver it.
	deliver, _ := BuiltinIndex("deliver")
	p := asm(
		[]Value{Int(2), Int(3), Int(4), Int(6), Str("out")},
		nil,
		[]int{int(OpConst), 4}, // key "out"
		[]int{int(OpConst), 0},
		[]int{int(OpConst), 1},
		[]int{int(OpAdd)},
		[]int{int(OpConst), 2},
		[]int{int(OpMul)},
		[]int{int(OpConst), 3},
		[]int{int(OpConst), 0},
		[]int{int(OpDiv)},
		[]int{int(OpSub)},
		[]int{int(OpCallBuiltin), deliver, 2},
		[]int{int(OpPop)},
		[]int{int(OpHalt)},
	)
	vm := mustRun(t, p, nil)
	if len(vm.Results) != 1 || vm.Results[0].Key != "out" || vm.Results[0].Value.AsInt() != 17 {
		t.Fatalf("results = %+v", vm.Results)
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	p := asm([]Value{Int(1), Int(0)}, nil,
		[]int{int(OpConst), 0},
		[]int{int(OpConst), 1},
		[]int{int(OpDiv)},
		[]int{int(OpHalt)},
	)
	vm, _ := New(p, "a", nil)
	st, err := vm.Run(newTestHost("h"), DefaultFuel)
	if st != StatusFailed || err == nil {
		t.Fatalf("st=%v err=%v, want failed", st, err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T", err)
	}
	if vm.FailMsg() == "" {
		t.Fatal("FailMsg empty after failure")
	}
}

func TestFuelSlicing(t *testing.T) {
	// Infinite loop: JMP 0.
	p := asm(nil, nil, []int{int(OpJump), 0})
	vm, _ := New(p, "a", nil)
	h := newTestHost("h")
	for i := 0; i < 3; i++ {
		st, err := vm.Run(h, 100)
		if !errors.Is(err, ErrOutOfFuel) || st != StatusReady {
			t.Fatalf("slice %d: st=%v err=%v", i, st, err)
		}
	}
	if vm.Steps != 300 {
		t.Fatalf("Steps = %d, want 300", vm.Steps)
	}
}

func TestMigrationSuspendResume(t *testing.T) {
	migrate, _ := BuiltinIndex("migrate")
	deliver, _ := BuiltinIndex("deliver")
	here, _ := BuiltinIndex("here")
	p := asm(
		[]Value{Str("host-b"), Str("where")},
		nil,
		[]int{int(OpConst), 0},
		[]int{int(OpCallBuiltin), migrate, 1},
		[]int{int(OpPop)},
		[]int{int(OpConst), 1},
		[]int{int(OpCallBuiltin), here, 0},
		[]int{int(OpCallBuiltin), deliver, 2},
		[]int{int(OpPop)},
		[]int{int(OpHalt)},
	)
	vm, _ := New(p, "a", nil)
	st, err := vm.Run(newTestHost("host-a"), DefaultFuel)
	if err != nil || st != StatusMigrating {
		t.Fatalf("st=%v err=%v, want migrating", st, err)
	}
	if vm.MigrateTarget() != "host-b" {
		t.Fatalf("target = %q", vm.MigrateTarget())
	}

	// Ship: serialise, reconstruct, resume at host-b.
	snap, err := MarshalState(vm)
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	vm2, err := UnmarshalState(p, snap)
	if err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	vm2.ClearMigration()
	if vm2.Hops != 1 {
		t.Fatalf("Hops = %d", vm2.Hops)
	}
	st, err = vm2.Run(newTestHost("host-b"), DefaultFuel)
	if err != nil || st != StatusDone {
		t.Fatalf("resume: st=%v err=%v", st, err)
	}
	if len(vm2.Results) != 1 || vm2.Results[0].Value.AsStr() != "host-b" {
		t.Fatalf("results = %+v", vm2.Results)
	}
}

func TestRunOnFinishedVM(t *testing.T) {
	p := asm(nil, nil, []int{int(OpHalt)})
	vm, _ := New(p, "a", nil)
	if _, err := vm.Run(newTestHost("h"), DefaultFuel); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(newTestHost("h"), DefaultFuel); err == nil {
		t.Fatal("Run on done VM should error")
	}
	if _, err := vm.Run(nil, DefaultFuel); err == nil {
		t.Fatal("Run with nil host should error")
	}
}

func TestProgramValidation(t *testing.T) {
	cases := map[string]*Program{
		"no functions": {},
		"entry params": {Functions: []*Function{{Name: "main", NumParams: 1, NumLocals: 1}}},
		"bad const": asm(nil, nil,
			[]int{int(OpConst), 5},
			[]int{int(OpHalt)}),
		"bad global": asm(nil, nil,
			[]int{int(OpLoadGlobal), 0},
			[]int{int(OpHalt)}),
		"bad local": asm(nil, nil,
			[]int{int(OpLoadLocal), 9},
			[]int{int(OpHalt)}),
		"bad jump": asm(nil, nil,
			[]int{int(OpJump), 999}),
		"bad call": asm(nil, nil,
			[]int{int(OpCall), 3, 0}),
		"bad builtin": asm(nil, nil,
			[]int{int(OpCallBuiltin), 9999, 0}),
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
	// Truncated operand.
	p := &Program{Functions: []*Function{{Name: "main", Code: []byte{byte(OpConst), 0}}}}
	if err := p.Validate(); err == nil {
		t.Error("truncated operand: Validate passed")
	}
	// Unknown opcode.
	p = &Program{Functions: []*Function{{Name: "main", Code: []byte{250}}}}
	if err := p.Validate(); err == nil {
		t.Error("unknown opcode: Validate passed")
	}
}

func TestProgramMarshalRoundTrip(t *testing.T) {
	deliver, _ := BuiltinIndex("deliver")
	p := asm(
		[]Value{Int(1), Float(2.5), Str("s"), Bool(true), Nil()},
		[]string{"g1", "g2"},
		[]int{int(OpConst), 2},
		[]int{int(OpConst), 0},
		[]int{int(OpCallBuiltin), deliver, 2},
		[]int{int(OpPop)},
		[]int{int(OpHalt)},
	)
	p.Source = "// original source"
	data, err := MarshalProgram(p)
	if err != nil {
		t.Fatalf("MarshalProgram: %v", err)
	}
	back, err := UnmarshalProgram(data)
	if err != nil {
		t.Fatalf("UnmarshalProgram: %v", err)
	}
	if back.Digest() != p.Digest() {
		t.Fatal("digest changed across round-trip")
	}
	if back.Source != p.Source {
		t.Fatalf("source = %q", back.Source)
	}
	if len(back.Globals) != 2 || back.Globals[1] != "g2" {
		t.Fatalf("globals = %v", back.Globals)
	}
	// The round-tripped program must execute identically.
	vm := mustRun(t, back, nil)
	if len(vm.Results) != 1 || vm.Results[0].Value.AsInt() != 1 {
		t.Fatalf("results = %+v", vm.Results)
	}
}

func TestUnmarshalProgramCorrupt(t *testing.T) {
	p := asm([]Value{Int(1)}, nil, []int{int(OpConst), 0}, []int{int(OpHalt)})
	good, _ := MarshalProgram(p)
	if _, err := UnmarshalProgram([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := UnmarshalProgram(good[:len(good)/2]); err == nil {
		t.Error("truncated program accepted")
	}
	big := make([]byte, MaxProgramSize+1)
	if _, err := UnmarshalProgram(big); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestStateMarshalValidation(t *testing.T) {
	p := asm([]Value{Int(1)}, []string{"g"}, []int{int(OpConst), 0}, []int{int(OpHalt)})
	vm, _ := New(p, "a", map[string]Value{"k": NewList(Int(1), Str("x"))})
	snap, err := MarshalState(vm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalState(p, snap); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	// Snapshot against a mismatched program must fail validation.
	other := asm(nil, nil, []int{int(OpHalt)})
	if _, err := UnmarshalState(other, snap); err == nil {
		t.Error("snapshot accepted against wrong program (global count)")
	}
	if _, err := UnmarshalState(p, []byte("junk")); err == nil {
		t.Error("junk snapshot accepted")
	}
	if _, err := UnmarshalState(p, snap[:len(snap)-3]); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestSnapshotPCBoundaryValidation(t *testing.T) {
	p := asm([]Value{Int(1)}, nil,
		[]int{int(OpConst), 0}, // 3 bytes: pc 0
		[]int{int(OpPop)},      // pc 3
		[]int{int(OpHalt)},     // pc 4
	)
	vm, _ := New(p, "a", nil)
	snap, _ := MarshalState(vm)
	// Find and corrupt the frame pc: re-serialise by hand is complex, so
	// instead check onBoundary directly.
	if !onBoundary(p.Functions[0].Code, 0) || !onBoundary(p.Functions[0].Code, 3) || !onBoundary(p.Functions[0].Code, 4) {
		t.Fatal("expected boundaries not recognised")
	}
	if onBoundary(p.Functions[0].Code, 1) || onBoundary(p.Functions[0].Code, 2) {
		t.Fatal("mid-instruction offsets accepted")
	}
	_ = snap
}

func TestCloneIndependence(t *testing.T) {
	push, _ := BuiltinIndex("push")
	deliver, _ := BuiltinIndex("deliver")
	// main: g = [1]; deliver("r", g); push(g, 2)
	p := asm(
		[]Value{Int(1), Int(2), Str("r")},
		[]string{"g"},
		[]int{int(OpConst), 0},
		[]int{int(OpMakeList), 1},
		[]int{int(OpStoreGlobal), 0},
		[]int{int(OpConst), 2},
		[]int{int(OpLoadGlobal), 0},
		[]int{int(OpCallBuiltin), deliver, 2},
		[]int{int(OpPop)},
		[]int{int(OpLoadGlobal), 0},
		[]int{int(OpConst), 1},
		[]int{int(OpCallBuiltin), push, 2},
		[]int{int(OpPop)},
		[]int{int(OpHalt)},
	)
	vm, _ := New(p, "orig", nil)
	clone, err := vm.Clone("copy")
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	if clone.AgentID != "copy" {
		t.Fatalf("clone id = %q", clone.AgentID)
	}
	// Run both; they must not interfere.
	if _, err := vm.Run(newTestHost("h"), DefaultFuel); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Run(newTestHost("h"), DefaultFuel); err != nil {
		t.Fatal(err)
	}
	if len(vm.Results) != 1 || len(clone.Results) != 1 {
		t.Fatalf("results: %d / %d", len(vm.Results), len(clone.Results))
	}
}

func TestForceFail(t *testing.T) {
	p := asm(nil, nil, []int{int(OpJump), 0}) // would loop forever
	vm, _ := New(p, "kill-me", nil)
	vm.ForceFail("administrative kill")
	if vm.Status() != StatusFailed || vm.FailMsg() != "administrative kill" {
		t.Fatalf("status=%v msg=%q", vm.Status(), vm.FailMsg())
	}
	if _, err := vm.Run(newTestHost("h"), 10); err == nil {
		t.Fatal("failed VM ran")
	}
	// The forced failure survives a snapshot round-trip.
	snap, err := MarshalState(vm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalState(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Status() != StatusFailed || back.FailMsg() != "administrative kill" {
		t.Fatalf("after round-trip: status=%v msg=%q", back.Status(), back.FailMsg())
	}
}

func TestBuiltinNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range BuiltinNames() {
		if seen[n] {
			t.Fatalf("duplicate builtin %q", n)
		}
		seen[n] = true
	}
	if _, ok := BuiltinIndex("migrate"); !ok {
		t.Fatal("migrate builtin missing")
	}
	if _, ok := BuiltinIndex("no-such"); ok {
		t.Fatal("bogus builtin found")
	}
}

func TestDisassemble(t *testing.T) {
	p := asm([]Value{Int(1)}, nil,
		[]int{int(OpConst), 0},
		[]int{int(OpPop)},
		[]int{int(OpHalt)},
	)
	dis := p.Functions[0].Disassemble()
	for _, want := range []string{"CONST 0", "POP", "HALT"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestStackOverflowCaught(t *testing.T) {
	// Loop pushing constants forever: must fail with stack overflow,
	// not crash.
	p := asm([]Value{Int(1)}, nil,
		[]int{int(OpConst), 0},
		[]int{int(OpJump), 0},
	)
	vm, _ := New(p, "a", nil)
	st, err := vm.Run(newTestHost("h"), uint64(maxStackDepth)*4)
	if st != StatusFailed || err == nil {
		t.Fatalf("st=%v err=%v", st, err)
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v", err)
	}
}

// TestHandBuiltProgramValidatedOnEveryUse: only a program a validating
// constructor froze skips Validate. A hand-built one is checked by New
// and UnmarshalState on every use, so one made invalid after a first
// use is refused by both; Freeze refuses it too, and a frozen program
// round-trips without being checked again.
func TestHandBuiltProgramValidatedOnEveryUse(t *testing.T) {
	p := asm([]Value{Int(1)}, []string{"g"}, []int{int(OpConst), 0}, []int{int(OpHalt)})
	vm, err := New(p, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := MarshalState(vm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalState(p, snap); err != nil {
		t.Fatalf("UnmarshalState of a valid hand-built program: %v", err)
	}
	p.Functions[0].Code[0] = 0xff // no such opcode
	if _, err := New(p, "a", nil); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("New with an invalid hand-built program: %v", err)
	}
	if _, err := UnmarshalState(p, snap); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("UnmarshalState with an invalid hand-built program: %v", err)
	}
	if err := p.Freeze(); err == nil {
		t.Error("Freeze accepted an invalid program")
	}
	p.Functions[0].Code[0] = byte(OpConst)
	if err := p.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalState(p, snap); err != nil {
		t.Fatalf("UnmarshalState of a frozen program: %v", err)
	}
}
