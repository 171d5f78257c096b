package mavm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
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
// It is scratch, reused through tablePool: AppendState takes one and
// hands it back cleared.
type objTable struct {
	listIDs map[*List]int
	mapIDs  map[*Map]int
	// objects in id order.
	objects []object
	// keys holds every registered map's keys, each map's run sorted
	// once (register) and read again when its contents are written.
	keys []string
	// params is the VM's parameter names, sorted.
	params []string
}

// object is one container of the table: a list, or a map and its run
// of sorted keys, keys[from:to].
type object struct {
	list     *List
	m        *Map
	from, to int
}

// maxPooledObjects bounds the table a pooled objTable may keep: one
// huge snapshot must not pin its scratch for the life of the process.
const maxPooledObjects = 4096

var tablePool = sync.Pool{New: func() any {
	return &objTable{listIDs: map[*List]int{}, mapIDs: map[*Map]int{}}
}}

// release clears t, so it holds no value of the VM it walked, and
// returns it to tablePool.
func (t *objTable) release() {
	if len(t.objects) > maxPooledObjects || len(t.keys) > maxPooledObjects {
		return
	}
	clear(t.listIDs)
	clear(t.mapIDs)
	clear(t.objects)
	clear(t.keys)
	clear(t.params)
	t.objects, t.keys, t.params = t.objects[:0], t.keys[:0], t.params[:0]
	tablePool.Put(t)
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
		t.objects = append(t.objects, object{list: v.list})
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
		from := len(t.keys)
		for k := range v.m.Entries {
			t.keys = append(t.keys, k)
		}
		slices.Sort(t.keys[from:])
		to := len(t.keys)
		t.mapIDs[v.m] = len(t.objects)
		t.objects = append(t.objects, object{m: v.m, from: from, to: to})
		// Index, not range: a nested map's keys may grow t.keys.
		for i := from; i < to; i++ {
			if err := t.register(v.m.Entries[t.keys[i]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendRef encodes a value either inline (scalar) or as an object
// reference.
func (t *objTable) appendRef(b []byte, v Value) ([]byte, error) {
	switch v.kind {
	case KindList:
		return binary.AppendUvarint(append(b, byte(KindList)), uint64(t.listIDs[v.list])), nil
	case KindMap:
		return binary.AppendUvarint(append(b, byte(KindMap)), uint64(t.mapIDs[v.m])), nil
	default:
		return appendScalar(b, v)
	}
}

// appendRefs encodes a counted slice of values.
func (t *objTable) appendRefs(b []byte, vs []Value) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if b, err = t.appendRef(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// MarshalState serialises the VM's complete execution state. Paired
// with the program (MarshalProgram), the result is a complete mobile
// agent image: the destination host reconstructs the VM and resumes at
// exactly the next instruction. The snapshot is written into reused
// scratch and copied out once, at its exact size.
func MarshalState(vm *VM) ([]byte, error) {
	bp := stateBufPool.Get().(*[]byte)
	b, err := AppendState((*bp)[:0], vm)
	if err != nil {
		stateBufPool.Put(bp)
		return nil, err
	}
	out := bytes.Clone(b)
	if cap(b) <= maxPooledStateBuf {
		*bp = b
		stateBufPool.Put(bp)
	}
	return out, nil
}

// maxPooledStateBuf bounds the snapshot scratch MarshalState keeps.
const maxPooledStateBuf = 64 << 10

var stateBufPool = sync.Pool{New: func() any { return new([]byte) }}

// AppendState appends the MarshalState encoding of vm to dst and
// returns the extended slice.
func AppendState(dst []byte, vm *VM) ([]byte, error) {
	t := tablePool.Get().(*objTable)
	defer t.release()
	for k := range vm.Params {
		t.params = append(t.params, k)
	}
	slices.Sort(t.params)

	// Pass 1: register every reachable container.
	for _, k := range t.params {
		if err := t.register(vm.Params[k]); err != nil {
			return nil, err
		}
	}
	for _, vs := range [...][]Value{vm.globals, vm.stack} {
		for _, v := range vs {
			if err := t.register(v); err != nil {
				return nil, err
			}
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

	b := append(dst, stateMagic...)
	b = appendString(b, vm.AgentID)
	b = append(b, byte(vm.status))
	b = appendString(b, vm.migrateTarget)
	b = appendString(b, vm.failMsg)
	b = binary.AppendUvarint(b, uint64(vm.Hops))
	b = binary.AppendUvarint(b, vm.Steps)

	// Object table: kinds first, then contents (so readers can allocate
	// shells before resolving references).
	b = binary.AppendUvarint(b, uint64(len(t.objects)))
	for _, o := range t.objects {
		if o.list != nil {
			b = append(b, byte(KindList))
		} else {
			b = append(b, byte(KindMap))
		}
	}
	var err error
	for _, o := range t.objects {
		if o.list != nil {
			if b, err = t.appendRefs(b, o.list.Items); err != nil {
				return nil, err
			}
			continue
		}
		b = binary.AppendUvarint(b, uint64(o.to-o.from))
		for _, k := range t.keys[o.from:o.to] {
			if b, err = t.appendRef(appendString(b, k), o.m.Entries[k]); err != nil {
				return nil, err
			}
		}
	}

	// Roots.
	b = binary.AppendUvarint(b, uint64(len(t.params)))
	for _, k := range t.params {
		if b, err = t.appendRef(appendString(b, k), vm.Params[k]); err != nil {
			return nil, err
		}
	}
	if b, err = t.appendRefs(b, vm.globals); err != nil {
		return nil, err
	}
	if b, err = t.appendRefs(b, vm.stack); err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(vm.Results)))
	for _, r := range vm.Results {
		if b, err = t.appendRef(appendString(b, r.Key), r.Value); err != nil {
			return nil, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(vm.frames)))
	for _, f := range vm.frames {
		b = binary.AppendUvarint(b, uint64(f.fn))
		b = binary.AppendUvarint(b, uint64(f.pc))
		if b, err = t.appendRefs(b, f.locals); err != nil {
			return nil, err
		}
	}
	return b, nil
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
	if err := prog.validate(); err != nil {
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
	vm.detached = len(vm.Results)
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
