package mavm

import (
	"bytes"
	"fmt"
	"sort"
)

// stateMagic begins every serialised VM snapshot.
var stateMagic = []byte("MAVMS2")

// MaxStateSize bounds snapshot deserialisation input.
const MaxStateSize = 8 << 20

// maxSnapshotObjects bounds the container-object table.
const maxSnapshotObjects = 1 << 20

// Snapshots preserve the value graph exactly: lists and maps are
// serialised once into an object table and referenced by id, so
// aliasing (a global and a stack slot holding the same list) and even
// cyclic structures survive migration unchanged. This matters: the
// common agent pattern
//
//	let out = [];            // global
//	... push(out, x) ...     // mutates through a stack reference
//
// only works if the stack reference and the global still point at the
// same list after a mid-expression snapshot.

// objTable assigns stable ids to reachable containers during marshal.
type objTable struct {
	listIDs map[*List]int
	mapIDs  map[*Map]int
	// objects in id order; entry is either *List or *Map.
	objects []any
}

func newObjTable() *objTable {
	return &objTable{listIDs: map[*List]int{}, mapIDs: map[*Map]int{}}
}

// register walks v, assigning ids to every reachable container once.
func (t *objTable) register(v Value) error {
	switch v.kind {
	case KindList:
		if _, ok := t.listIDs[v.list]; ok {
			return nil
		}
		if len(t.objects) >= maxSnapshotObjects {
			return fmt.Errorf("mavm: snapshot exceeds %d containers", maxSnapshotObjects)
		}
		t.listIDs[v.list] = len(t.objects)
		t.objects = append(t.objects, v.list)
		for _, it := range v.list.Items {
			if err := t.register(it); err != nil {
				return err
			}
		}
	case KindMap:
		if _, ok := t.mapIDs[v.m]; ok {
			return nil
		}
		if len(t.objects) >= maxSnapshotObjects {
			return fmt.Errorf("mavm: snapshot exceeds %d containers", maxSnapshotObjects)
		}
		t.mapIDs[v.m] = len(t.objects)
		t.objects = append(t.objects, v.m)
		for _, k := range v.MapKeys() {
			if err := t.register(v.m.Entries[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeRef encodes a value either inline (scalar) or as an object
// reference.
func (t *objTable) writeRef(b *bytes.Buffer, v Value) error {
	switch v.kind {
	case KindList:
		b.WriteByte(byte(KindList))
		writeUvarint(b, uint64(t.listIDs[v.list]))
		return nil
	case KindMap:
		b.WriteByte(byte(KindMap))
		writeUvarint(b, uint64(t.mapIDs[v.m]))
		return nil
	default:
		return writeScalar(b, v)
	}
}

// MarshalState serialises the VM's complete execution state. Paired
// with the program (MarshalProgram), the result is a complete mobile
// agent image: the destination host reconstructs the VM and resumes at
// exactly the next instruction.
func MarshalState(vm *VM) ([]byte, error) {
	t := newObjTable()
	paramKeys := make([]string, 0, len(vm.Params))
	for k := range vm.Params {
		paramKeys = append(paramKeys, k)
	}
	sort.Strings(paramKeys)

	// Pass 1: register every reachable container.
	for _, k := range paramKeys {
		if err := t.register(vm.Params[k]); err != nil {
			return nil, err
		}
	}
	for _, v := range vm.globals {
		if err := t.register(v); err != nil {
			return nil, err
		}
	}
	for _, v := range vm.stack {
		if err := t.register(v); err != nil {
			return nil, err
		}
	}
	for _, r := range vm.Results {
		if err := t.register(r.Value); err != nil {
			return nil, err
		}
	}
	for _, f := range vm.frames {
		for _, v := range f.locals {
			if err := t.register(v); err != nil {
				return nil, err
			}
		}
	}

	var b bytes.Buffer
	b.Write(stateMagic)
	writeString(&b, vm.AgentID)
	b.WriteByte(byte(vm.status))
	writeString(&b, vm.migrateTarget)
	writeString(&b, vm.failMsg)
	writeUvarint(&b, uint64(vm.Hops))
	writeUvarint(&b, vm.Steps)

	// Object table: kinds first, then contents (so readers can allocate
	// shells before resolving references).
	writeUvarint(&b, uint64(len(t.objects)))
	for _, o := range t.objects {
		if _, isList := o.(*List); isList {
			b.WriteByte(byte(KindList))
		} else {
			b.WriteByte(byte(KindMap))
		}
	}
	for _, o := range t.objects {
		switch c := o.(type) {
		case *List:
			writeUvarint(&b, uint64(len(c.Items)))
			for _, it := range c.Items {
				if err := t.writeRef(&b, it); err != nil {
					return nil, err
				}
			}
		case *Map:
			keys := make([]string, 0, len(c.Entries))
			for k := range c.Entries {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			writeUvarint(&b, uint64(len(keys)))
			for _, k := range keys {
				writeString(&b, k)
				if err := t.writeRef(&b, c.Entries[k]); err != nil {
					return nil, err
				}
			}
		}
	}

	// Roots.
	writeUvarint(&b, uint64(len(paramKeys)))
	for _, k := range paramKeys {
		writeString(&b, k)
		if err := t.writeRef(&b, vm.Params[k]); err != nil {
			return nil, err
		}
	}
	writeRefSlice := func(vs []Value) error {
		writeUvarint(&b, uint64(len(vs)))
		for _, v := range vs {
			if err := t.writeRef(&b, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeRefSlice(vm.globals); err != nil {
		return nil, err
	}
	if err := writeRefSlice(vm.stack); err != nil {
		return nil, err
	}
	writeUvarint(&b, uint64(len(vm.Results)))
	for _, r := range vm.Results {
		writeString(&b, r.Key)
		if err := t.writeRef(&b, r.Value); err != nil {
			return nil, err
		}
	}
	writeUvarint(&b, uint64(len(vm.frames)))
	for _, f := range vm.frames {
		writeUvarint(&b, uint64(f.fn))
		writeUvarint(&b, uint64(f.pc))
		if err := writeRefSlice(f.locals); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// stateReader resolves object references while decoding.
type stateReader struct {
	r       *reader
	objects []Value // pre-allocated shells, then filled
}

func (sr *stateReader) readRef() (Value, error) {
	if sr.r.err != nil {
		return Nil(), sr.r.err
	}
	if sr.r.pos >= len(sr.r.data) {
		sr.r.fail()
		return Nil(), sr.r.err
	}
	kind := Kind(sr.r.data[sr.r.pos])
	switch kind {
	case KindList, KindMap:
		sr.r.pos++
		id := sr.r.uvarint()
		if id >= uint64(len(sr.objects)) {
			return Nil(), fmt.Errorf("mavm: snapshot references object %d of %d", id, len(sr.objects))
		}
		obj := sr.objects[id]
		if obj.kind != kind {
			return Nil(), fmt.Errorf("mavm: snapshot object %d kind mismatch", id)
		}
		return obj, nil
	default:
		return readScalar(sr.r)
	}
}

func (sr *stateReader) readRefSlice() ([]Value, error) {
	n := sr.r.uvarint()
	if n > sr.r.remaining() {
		return nil, fmt.Errorf("mavm: corrupt snapshot: slice count %d", n)
	}
	out := make([]Value, 0, n)
	for i := uint64(0); i < n && sr.r.err == nil; i++ {
		v, err := sr.readRef()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, sr.r.err
}

// UnmarshalState reconstructs a VM from a snapshot, validating every
// structural reference against prog.
func UnmarshalState(prog *Program, data []byte) (*VM, error) {
	if len(data) > MaxStateSize {
		return nil, fmt.Errorf("mavm: snapshot of %d bytes exceeds limit", len(data))
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	r := &reader{data: data}
	magic := r.bytes(len(stateMagic))
	if r.err != nil || !bytes.Equal(magic, stateMagic) {
		return nil, fmt.Errorf("mavm: bad snapshot magic")
	}
	vm := &VM{prog: prog}
	vm.AgentID = r.str()
	vm.status = Status(r.byte())
	vm.migrateTarget = r.str()
	vm.failMsg = r.str()
	vm.Hops = int(r.uvarint())
	vm.Steps = r.uvarint()

	// Every count below is checked against the bytes left before
	// anything is allocated for it: each container, element, entry and
	// root takes at least one byte of input, so what a snapshot makes
	// the decoder allocate is bounded by a multiple of its length.
	//
	// Object table: allocate shells, then fill contents.
	nObj := r.uvarint()
	if nObj > maxSnapshotObjects || nObj > r.remaining() {
		return nil, fmt.Errorf("mavm: snapshot declares %d containers", nObj)
	}
	sr := &stateReader{r: r}
	sr.objects = make([]Value, nObj)
	for i := uint64(0); i < nObj && r.err == nil; i++ {
		switch Kind(r.byte()) {
		case KindList:
			sr.objects[i] = NewList()
		case KindMap:
			sr.objects[i] = NewMap()
		default:
			return nil, fmt.Errorf("mavm: snapshot object %d has bad kind", i)
		}
	}
	for i := uint64(0); i < nObj && r.err == nil; i++ {
		obj := sr.objects[i]
		n := r.uvarint()
		if n > r.remaining() {
			return nil, fmt.Errorf("mavm: corrupt snapshot: container size %d", n)
		}
		if obj.kind == KindList {
			obj.list.Items = make([]Value, 0, n)
			for j := uint64(0); j < n && r.err == nil; j++ {
				v, err := sr.readRef()
				if err != nil {
					return nil, err
				}
				obj.list.Items = append(obj.list.Items, v)
			}
		} else {
			for j := uint64(0); j < n && r.err == nil; j++ {
				k := r.str()
				v, err := sr.readRef()
				if err != nil {
					return nil, err
				}
				obj.m.Entries[k] = v
			}
		}
	}

	// Roots.
	nParams := r.uvarint()
	if nParams > r.remaining() {
		return nil, fmt.Errorf("mavm: corrupt snapshot: param count")
	}
	vm.Params = make(map[string]Value, nParams)
	for i := uint64(0); i < nParams && r.err == nil; i++ {
		k := r.str()
		v, err := sr.readRef()
		if err != nil {
			return nil, err
		}
		vm.Params[k] = v
	}
	var err error
	if vm.globals, err = sr.readRefSlice(); err != nil {
		return nil, err
	}
	if vm.stack, err = sr.readRefSlice(); err != nil {
		return nil, err
	}
	nResults := r.uvarint()
	if nResults > r.remaining() {
		return nil, fmt.Errorf("mavm: corrupt snapshot: result count")
	}
	for i := uint64(0); i < nResults && r.err == nil; i++ {
		k := r.str()
		v, err := sr.readRef()
		if err != nil {
			return nil, err
		}
		vm.Results = append(vm.Results, Result{Key: k, Value: v})
	}
	nFrames := r.uvarint()
	if nFrames > maxFrameDepth {
		return nil, fmt.Errorf("mavm: corrupt snapshot: %d frames", nFrames)
	}
	for i := uint64(0); i < nFrames && r.err == nil; i++ {
		var f frame
		f.fn = int(r.uvarint())
		f.pc = int(r.uvarint())
		if f.locals, err = sr.readRefSlice(); err != nil {
			return nil, err
		}
		vm.frames = append(vm.frames, f)
	}
	if r.err != nil {
		return nil, fmt.Errorf("mavm: truncated snapshot: %w", r.err)
	}

	// Structural validation against the program.
	switch vm.status {
	case StatusReady, StatusMigrating, StatusDone, StatusFailed:
	default:
		return nil, fmt.Errorf("mavm: snapshot has invalid status %d", vm.status)
	}
	if vm.status == StatusMigrating && vm.migrateTarget == "" {
		return nil, fmt.Errorf("mavm: migrating snapshot without target")
	}
	if len(vm.globals) != len(prog.Globals) {
		return nil, fmt.Errorf("mavm: snapshot has %d globals, program %d", len(vm.globals), len(prog.Globals))
	}
	if len(vm.stack) > maxStackDepth {
		return nil, fmt.Errorf("mavm: snapshot stack too deep")
	}
	for i, f := range vm.frames {
		if f.fn < 0 || f.fn >= len(prog.Functions) {
			return nil, fmt.Errorf("mavm: frame %d references function %d", i, f.fn)
		}
		fun := prog.Functions[f.fn]
		if f.pc < 0 || f.pc > len(fun.Code) {
			return nil, fmt.Errorf("mavm: frame %d pc %d out of range", i, f.pc)
		}
		// pc must sit on an instruction boundary; walk the code to check.
		if !onBoundary(fun.Code, f.pc) {
			return nil, fmt.Errorf("mavm: frame %d pc %d not on instruction boundary", i, f.pc)
		}
		if len(f.locals) != fun.NumLocals {
			return nil, fmt.Errorf("mavm: frame %d has %d locals, function %q needs %d",
				i, len(f.locals), fun.Name, fun.NumLocals)
		}
	}
	return vm, nil
}

// onBoundary reports whether pc falls on an instruction start.
func onBoundary(code []byte, pc int) bool {
	for i := 0; i < len(code); {
		if i == pc {
			return true
		}
		if i > pc {
			return false
		}
		i += 1 + operandWidth(Op(code[i]))
	}
	return pc == len(code)
}
