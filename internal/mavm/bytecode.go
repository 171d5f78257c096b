package mavm

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"
)

// Op is a bytecode opcode.
type Op byte

// Opcodes. Operand widths are noted; all operands are big-endian.
// Codes are part of the agent wire format and must not be renumbered.
const (
	OpHalt Op = iota
	// OpConst u16: push constants[n].
	OpConst
	// OpNil, OpTrue, OpFalse: push the literal.
	OpNil
	OpTrue
	OpFalse
	// OpPop: discard top of stack.
	OpPop
	// OpDup: duplicate top of stack.
	OpDup
	// OpLoadGlobal/OpStoreGlobal u16: global slot access.
	OpLoadGlobal
	OpStoreGlobal
	// OpLoadLocal/OpStoreLocal u16: frame-local slot access.
	OpLoadLocal
	OpStoreLocal
	// Arithmetic: pop b, pop a, push a∘b.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	// Unary: pop a, push ∘a.
	OpNeg
	OpNot
	// Comparison: pop b, pop a, push bool.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// OpJump u32: absolute jump within the current function.
	OpJump
	// OpJumpIfFalse/OpJumpIfTrue u32: pop condition, jump if (un)truthy.
	OpJumpIfFalse
	OpJumpIfTrue
	// OpCall u16 fn, u8 argc: push frame for functions[fn].
	OpCall
	// OpCallBuiltin u16 builtin, u8 argc: invoke builtins[n].
	OpCallBuiltin
	// OpReturn: pop return value, pop frame.
	OpReturn
	// OpMakeList u16: pop n items, push list.
	OpMakeList
	// OpMakeMap u16: pop n (key,value) pairs, push map.
	OpMakeMap
	// OpIndex: pop index, pop container, push element.
	OpIndex
	// OpSetIndex: pop value, pop index, pop container; container[index]=value.
	OpSetIndex
)

// opNames names every opcode; an empty entry is an unknown opcode.
var opNames = [256]string{
	OpHalt: "HALT", OpConst: "CONST", OpNil: "NIL", OpTrue: "TRUE", OpFalse: "FALSE",
	OpPop: "POP", OpDup: "DUP",
	OpLoadGlobal: "LOADG", OpStoreGlobal: "STOREG", OpLoadLocal: "LOADL", OpStoreLocal: "STOREL",
	OpAdd: "ADD", OpSub: "SUB", OpMul: "MUL", OpDiv: "DIV", OpMod: "MOD",
	OpNeg: "NEG", OpNot: "NOT",
	OpEq: "EQ", OpNe: "NE", OpLt: "LT", OpLe: "LE", OpGt: "GT", OpGe: "GE",
	OpJump: "JMP", OpJumpIfFalse: "JMPF", OpJumpIfTrue: "JMPT",
	OpCall: "CALL", OpCallBuiltin: "BUILTIN", OpReturn: "RET",
	OpMakeList: "MKLIST", OpMakeMap: "MKMAP", OpIndex: "INDEX", OpSetIndex: "SETINDEX",
}

func (o Op) String() string {
	if s := opNames[o]; s != "" {
		return s
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// operandWidth returns the number of operand bytes following each op.
func operandWidth(o Op) int {
	switch o {
	case OpConst, OpLoadGlobal, OpStoreGlobal, OpLoadLocal, OpStoreLocal, OpMakeList, OpMakeMap:
		return 2
	case OpJump, OpJumpIfFalse, OpJumpIfTrue:
		return 4
	case OpCall, OpCallBuiltin:
		return 3
	default:
		return 0
	}
}

// Function is one compiled function body. Code offsets (pc) are local
// to the function.
type Function struct {
	Name      string
	NumParams int
	NumLocals int // including params
	Code      []byte
	// Lines[i] is the source line of the op starting at Code offset i
	// (zero elsewhere); used for runtime error positions.
	Lines []int32
}

// Program is a compiled agent: shared constants, the global name table
// and the function list. Functions[0] is the entry point ("main").
type Program struct {
	// Constants is the shared literal pool (only scalar kinds).
	Constants []Value
	// Globals are the names of global slots, in slot order.
	Globals []string
	// Functions, entry point first.
	Functions []*Function
	// Source optionally retains the original MAScript text for
	// re-shipment and debugging.
	Source string

	// validated is set by Freeze, which UnmarshalProgram and the
	// compiler call before they hand a program out: New and
	// UnmarshalState trust a frozen program without validating it again.
	// A hand-built program is validated on every use.
	validated bool
	// encoded memoises MarshalProgram of a frozen program.
	encoded atomic.Pointer[[]byte]
}

// Freeze validates p and marks it valid, so New and UnmarshalState
// skip Validate for it. p must not be changed afterwards.
func (p *Program) Freeze() error {
	if err := p.Validate(); err != nil {
		return err
	}
	p.validated = true
	return nil
}

// validate is Validate for a program not frozen.
func (p *Program) validate() error {
	if p.validated {
		return nil
	}
	return p.Validate()
}

// Digest returns a stable hex id of the compiled code (not the source),
// used to identify code packages.
func (p *Program) Digest() string {
	h := md5.New()
	for _, c := range p.Constants {
		h.Write([]byte(c.Kind().String()))
		h.Write([]byte(c.String()))
	}
	for _, g := range p.Globals {
		h.Write([]byte(g))
	}
	for _, f := range p.Functions {
		h.Write([]byte(f.Name))
		h.Write(f.Code)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Disassemble renders a function's bytecode for debugging and tests.
func (f *Function) Disassemble() string {
	var b bytes.Buffer
	for pc := 0; pc < len(f.Code); {
		op := Op(f.Code[pc])
		fmt.Fprintf(&b, "%04d %s", pc, op)
		w := operandWidth(op)
		switch w {
		case 2:
			fmt.Fprintf(&b, " %d", binary.BigEndian.Uint16(f.Code[pc+1:]))
		case 3:
			fmt.Fprintf(&b, " %d %d", binary.BigEndian.Uint16(f.Code[pc+1:]), f.Code[pc+3])
		case 4:
			fmt.Fprintf(&b, " %d", binary.BigEndian.Uint32(f.Code[pc+1:]))
		}
		b.WriteByte('\n')
		pc += 1 + w
	}
	return b.String()
}

// --- Program wire format ---------------------------------------------

// programMagic begins every serialised Program.
var programMagic = []byte("MAVMP1")

// MaxProgramSize bounds deserialisation input.
const MaxProgramSize = 4 << 20

// MarshalProgram serialises a Program. A frozen program is serialised
// once, and every call shares those bytes: callers must not modify them.
func MarshalProgram(p *Program) ([]byte, error) {
	if b := p.encoded.Load(); b != nil {
		return *b, nil
	}
	b, err := marshalProgram(p)
	if err == nil && p.validated {
		p.encoded.Store(&b)
	}
	return b, err
}

func marshalProgram(p *Program) ([]byte, error) {
	b := append([]byte(nil), programMagic...)
	b = binary.AppendUvarint(b, uint64(len(p.Constants)))
	var err error
	for _, c := range p.Constants {
		if b, err = appendScalar(b, c); err != nil {
			return nil, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(p.Globals)))
	for _, g := range p.Globals {
		b = appendString(b, g)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Functions)))
	for _, f := range p.Functions {
		b = appendString(b, f.Name)
		b = binary.AppendUvarint(b, uint64(f.NumParams))
		b = binary.AppendUvarint(b, uint64(f.NumLocals))
		b = binary.AppendUvarint(b, uint64(len(f.Code)))
		b = append(b, f.Code...)
		b = binary.AppendUvarint(b, uint64(len(f.Lines)))
		for _, l := range f.Lines {
			b = binary.AppendUvarint(b, uint64(l))
		}
	}
	return appendString(b, p.Source), nil
}

// UnmarshalProgram parses a serialised Program and validates its
// structural invariants (operand bounds, jump targets).
func UnmarshalProgram(data []byte) (*Program, error) {
	if len(data) > MaxProgramSize {
		return nil, fmt.Errorf("mavm: program of %d bytes exceeds limit", len(data))
	}
	r := &reader{data: data}
	magic := r.bytes(len(programMagic))
	if r.err != nil || !bytes.Equal(magic, programMagic) {
		return nil, fmt.Errorf("mavm: bad program magic")
	}
	p := &Program{}
	nConst := r.uvarint()
	for i := uint64(0); i < nConst && r.err == nil; i++ {
		v, err := readScalar(r)
		if err != nil {
			return nil, err
		}
		p.Constants = append(p.Constants, v)
	}
	nGlob := r.uvarint()
	for i := uint64(0); i < nGlob && r.err == nil; i++ {
		p.Globals = append(p.Globals, r.str())
	}
	nFun := r.uvarint()
	for i := uint64(0); i < nFun && r.err == nil; i++ {
		f := &Function{}
		f.Name = r.str()
		f.NumParams = int(r.uvarint())
		f.NumLocals = int(r.uvarint())
		codeLen := r.uvarint()
		f.Code = append([]byte(nil), r.bytes(int(codeLen))...)
		nLines := r.uvarint()
		for j := uint64(0); j < nLines && r.err == nil; j++ {
			f.Lines = append(f.Lines, int32(r.uvarint()))
		}
		p.Functions = append(p.Functions, f)
	}
	p.Source = r.str()
	if r.err != nil {
		return nil, fmt.Errorf("mavm: truncated program: %w", r.err)
	}
	if err := p.Freeze(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks structural invariants of the program so a hostile or
// corrupt program cannot drive the VM out of bounds.
func (p *Program) Validate() error {
	if len(p.Functions) == 0 {
		return fmt.Errorf("mavm: program has no functions")
	}
	if p.Functions[0].NumParams != 0 {
		return fmt.Errorf("mavm: entry function takes parameters")
	}
	for fi, f := range p.Functions {
		if f.NumLocals < f.NumParams {
			return fmt.Errorf("mavm: function %d: locals %d < params %d", fi, f.NumLocals, f.NumParams)
		}
		if f.NumLocals > math.MaxUint16 {
			return fmt.Errorf("mavm: function %d: too many locals", fi)
		}
		for pc := 0; pc < len(f.Code); {
			op := Op(f.Code[pc])
			if opNames[op] == "" {
				return fmt.Errorf("mavm: function %d: unknown opcode %d at %d", fi, op, pc)
			}
			w := operandWidth(op)
			if pc+1+w > len(f.Code) {
				return fmt.Errorf("mavm: function %d: truncated operand at %d", fi, pc)
			}
			switch op {
			case OpConst:
				if n := binary.BigEndian.Uint16(f.Code[pc+1:]); int(n) >= len(p.Constants) {
					return fmt.Errorf("mavm: function %d: constant %d out of range at %d", fi, n, pc)
				}
			case OpLoadGlobal, OpStoreGlobal:
				if n := binary.BigEndian.Uint16(f.Code[pc+1:]); int(n) >= len(p.Globals) {
					return fmt.Errorf("mavm: function %d: global %d out of range at %d", fi, n, pc)
				}
			case OpLoadLocal, OpStoreLocal:
				if n := binary.BigEndian.Uint16(f.Code[pc+1:]); int(n) >= f.NumLocals {
					return fmt.Errorf("mavm: function %d: local %d out of range at %d", fi, n, pc)
				}
			case OpJump, OpJumpIfFalse, OpJumpIfTrue:
				if t := binary.BigEndian.Uint32(f.Code[pc+1:]); int(t) > len(f.Code) {
					return fmt.Errorf("mavm: function %d: jump to %d out of range at %d", fi, t, pc)
				}
			case OpCall:
				if n := binary.BigEndian.Uint16(f.Code[pc+1:]); int(n) >= len(p.Functions) {
					return fmt.Errorf("mavm: function %d: call to %d out of range at %d", fi, n, pc)
				}
			case OpCallBuiltin:
				if n := binary.BigEndian.Uint16(f.Code[pc+1:]); int(n) >= len(builtinRegistry) {
					return fmt.Errorf("mavm: function %d: builtin %d out of range at %d", fi, n, pc)
				}
			}
			pc += 1 + w
		}
	}
	return nil
}

// --- shared little encoding helpers ----------------------------------

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendScalar encodes a scalar constant (containers never appear in
// the constant pool).
func appendScalar(b []byte, v Value) ([]byte, error) {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNil:
	case KindBool:
		b = append(b, byte(v.n))
	case KindInt:
		b = binary.AppendVarint(b, int64(v.n))
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, v.n)
	case KindStr:
		b = appendString(b, v.s)
	default:
		return nil, fmt.Errorf("mavm: %v constant not allowed in pool", v.kind)
	}
	return b, nil
}

func readScalar(r *reader) (Value, error) {
	kind := Kind(r.byte())
	switch kind {
	case KindNil:
		return Nil(), r.err
	case KindBool:
		return Bool(r.byte() != 0), r.err
	case KindInt:
		return Int(r.varint()), r.err
	case KindFloat:
		raw := r.bytes(8)
		if r.err != nil {
			return Nil(), r.err
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(raw))), nil
	case KindStr:
		return Str(r.str()), r.err
	default:
		return Nil(), fmt.Errorf("mavm: bad scalar kind %d", kind)
	}
}

// reader is a bounds-checked sequential decoder.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("unexpected end of input at %d", r.pos)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.data) {
		r.fail()
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

// remaining is how many input bytes are left to decode.
func (r *reader) remaining() uint64 { return uint64(len(r.data) - r.pos) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.data)) {
		r.fail()
		return ""
	}
	return string(r.bytes(int(n)))
}
