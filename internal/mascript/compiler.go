package mascript

import (
	"encoding/binary"
	"fmt"
	"math"

	"pdagent/internal/mavm"
)

// CompileEntry is the compiler entry point the compiled-program cache
// (internal/progcache) drives. It exists as a variable so tests can
// poison it and prove that a cache-hit dispatch performs zero lexer or
// parser work; production code never reassigns it.
var CompileEntry func(src string) (*mavm.Program, error) = Compile

// Compile parses and compiles MAScript source into an executable
// mavm.Program. The original source is retained in Program.Source.
func Compile(src string) (*mavm.Program, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{
		prog:      &mavm.Program{Source: src},
		constIdx:  make(map[string]int),
		funcIdx:   make(map[string]int),
		globalIdx: make(map[string]int),
	}
	return c.compile(ast)
}

// compiler holds program-wide compilation state.
type compiler struct {
	prog      *mavm.Program
	constIdx  map[string]int // dedup key -> pool index
	funcIdx   map[string]int // function name -> Functions index
	globalIdx map[string]int // global name -> slot
	funcDecls []*FuncDecl
}

func (c *compiler) compile(ast *Program) (*mavm.Program, error) {
	// Pass 1: function table (entry 0 is main) and global slots, so
	// bodies can reference functions and globals declared later.
	main := &mavm.Function{Name: "main"}
	c.prog.Functions = append(c.prog.Functions, main)
	for _, fd := range ast.Funcs {
		if _, dup := c.funcIdx[fd.Name]; dup {
			return nil, errAt(fd.line, fd.col, "duplicate function %q", fd.Name)
		}
		if _, isBuiltin := mavm.BuiltinIndex(fd.Name); isBuiltin {
			return nil, errAt(fd.line, fd.col, "function %q conflicts with a builtin", fd.Name)
		}
		c.funcIdx[fd.Name] = len(c.prog.Functions)
		c.prog.Functions = append(c.prog.Functions, &mavm.Function{
			Name:      fd.Name,
			NumParams: len(fd.Params),
		})
		c.funcDecls = append(c.funcDecls, fd)
	}
	for _, s := range ast.Stmts {
		if let, ok := s.(*LetStmt); ok {
			if _, dup := c.globalIdx[let.Name]; dup {
				return nil, errAt(let.line, let.col, "duplicate global %q", let.Name)
			}
			c.globalIdx[let.Name] = len(c.prog.Globals)
			c.prog.Globals = append(c.prog.Globals, let.Name)
		}
	}
	if len(c.prog.Globals) > math.MaxUint16 {
		return nil, fmt.Errorf("mascript: too many globals (%d)", len(c.prog.Globals))
	}

	// Pass 2: compile bodies.
	fc := newFuncCompiler(c, main, nil)
	for _, s := range ast.Stmts {
		if err := fc.stmt(s, true); err != nil {
			return nil, err
		}
	}
	fc.emit(0, mavm.OpHalt)
	fc.finish()

	for i, fd := range c.funcDecls {
		fn := c.prog.Functions[i+1]
		fc := newFuncCompiler(c, fn, fd.Params)
		for _, s := range fd.Body.Stmts {
			if err := fc.stmt(s, false); err != nil {
				return nil, err
			}
		}
		// Implicit return nil on fall-through.
		fc.emit(0, mavm.OpNil)
		fc.emit(0, mavm.OpReturn)
		fc.finish()
	}

	if err := c.prog.Freeze(); err != nil {
		return nil, fmt.Errorf("mascript: internal error: compiled program invalid: %w", err)
	}
	return c.prog, nil
}

// constant interns a scalar in the pool.
func (c *compiler) constant(v mavm.Value) (int, error) {
	key := v.Kind().String() + "\x00" + v.String()
	if idx, ok := c.constIdx[key]; ok {
		return idx, nil
	}
	if len(c.prog.Constants) >= math.MaxUint16 {
		return 0, fmt.Errorf("mascript: constant pool overflow")
	}
	idx := len(c.prog.Constants)
	c.prog.Constants = append(c.prog.Constants, v)
	c.constIdx[key] = idx
	return idx, nil
}

// funcCompiler compiles one function body.
type funcCompiler struct {
	c  *compiler
	fn *mavm.Function
	// scopes maps names to local slots, innermost last.
	scopes   []map[string]int
	nextSlot int
	maxSlot  int
	loops    []*loopCtx
	hidden   int // counter for synthesised loop variables
}

type loopCtx struct {
	breakPatches    []int
	continuePatches []int
}

func newFuncCompiler(c *compiler, fn *mavm.Function, params []string) *funcCompiler {
	fc := &funcCompiler{c: c, fn: fn}
	fc.pushScope()
	for _, p := range params {
		fc.declareLocal(p)
	}
	return fc
}

func (fc *funcCompiler) pushScope() { fc.scopes = append(fc.scopes, map[string]int{}) }
func (fc *funcCompiler) popScope()  { fc.scopes = fc.scopes[:len(fc.scopes)-1] }

func (fc *funcCompiler) declareLocal(name string) int {
	slot := fc.nextSlot
	fc.nextSlot++
	if fc.nextSlot > fc.maxSlot {
		fc.maxSlot = fc.nextSlot
	}
	fc.scopes[len(fc.scopes)-1][name] = slot
	return slot
}

// resolveLocal returns the slot for name if locally bound.
func (fc *funcCompiler) resolveLocal(name string) (int, bool) {
	for i := len(fc.scopes) - 1; i >= 0; i-- {
		if slot, ok := fc.scopes[i][name]; ok {
			return slot, true
		}
	}
	return 0, false
}

func (fc *funcCompiler) finish() {
	fc.fn.NumLocals = fc.maxSlot
}

// emit appends an op with operands, recording the source line.
func (fc *funcCompiler) emit(line int, op mavm.Op, operands ...int) int {
	at := len(fc.fn.Code)
	fc.fn.Code = append(fc.fn.Code, byte(op))
	for len(fc.fn.Lines) < len(fc.fn.Code) {
		fc.fn.Lines = append(fc.fn.Lines, 0)
	}
	fc.fn.Lines[at] = int32(line)
	switch op {
	case mavm.OpConst, mavm.OpLoadGlobal, mavm.OpStoreGlobal,
		mavm.OpLoadLocal, mavm.OpStoreLocal, mavm.OpMakeList, mavm.OpMakeMap:
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], uint16(operands[0]))
		fc.fn.Code = append(fc.fn.Code, b[:]...)
	case mavm.OpJump, mavm.OpJumpIfFalse, mavm.OpJumpIfTrue:
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(operands[0]))
		fc.fn.Code = append(fc.fn.Code, b[:]...)
	case mavm.OpCall, mavm.OpCallBuiltin:
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], uint16(operands[0]))
		fc.fn.Code = append(fc.fn.Code, b[:]...)
		fc.fn.Code = append(fc.fn.Code, byte(operands[1]))
	}
	for len(fc.fn.Lines) < len(fc.fn.Code) {
		fc.fn.Lines = append(fc.fn.Lines, 0)
	}
	return at
}

// emitJump emits a jump with a placeholder target, returning the patch
// position.
func (fc *funcCompiler) emitJump(line int, op mavm.Op) int {
	at := fc.emit(line, op, 0)
	return at
}

// patch sets the jump at patchPos to target the current code end (or an
// explicit position).
func (fc *funcCompiler) patchTo(patchPos, target int) {
	binary.BigEndian.PutUint32(fc.fn.Code[patchPos+1:], uint32(target))
}

func (fc *funcCompiler) patchHere(patchPos int) {
	fc.patchTo(patchPos, len(fc.fn.Code))
}

// --- statements --------------------------------------------------------

// stmt compiles one statement. topLevel is true only for statements
// directly in the program body (where let declares a global).
func (fc *funcCompiler) stmt(s Stmt, topLevel bool) error {
	switch st := s.(type) {
	case *LetStmt:
		if err := fc.expr(st.Init); err != nil {
			return err
		}
		if topLevel {
			slot := fc.c.globalIdx[st.Name] // registered in pass 1
			fc.emit(st.line, mavm.OpStoreGlobal, slot)
			return nil
		}
		if _, exists := fc.scopes[len(fc.scopes)-1][st.Name]; exists {
			return errAt(st.line, st.col, "variable %q already declared in this scope", st.Name)
		}
		slot := fc.declareLocal(st.Name)
		fc.emit(st.line, mavm.OpStoreLocal, slot)
		return nil

	case *AssignStmt:
		return fc.assign(st)

	case *ExprStmt:
		if err := fc.expr(st.X); err != nil {
			return err
		}
		fc.emit(st.line, mavm.OpPop)
		return nil

	case *Block:
		fc.pushScope()
		defer fc.popScope()
		for _, inner := range st.Stmts {
			if err := fc.stmt(inner, false); err != nil {
				return err
			}
		}
		return nil

	case *IfStmt:
		if err := fc.expr(st.Cond); err != nil {
			return err
		}
		elseJump := fc.emitJump(st.line, mavm.OpJumpIfFalse)
		if err := fc.stmt(st.Then, false); err != nil {
			return err
		}
		if st.Else == nil {
			fc.patchHere(elseJump)
			return nil
		}
		endJump := fc.emitJump(st.line, mavm.OpJump)
		fc.patchHere(elseJump)
		if err := fc.stmt(st.Else, false); err != nil {
			return err
		}
		fc.patchHere(endJump)
		return nil

	case *WhileStmt:
		condPos := len(fc.fn.Code)
		if err := fc.expr(st.Cond); err != nil {
			return err
		}
		exitJump := fc.emitJump(st.line, mavm.OpJumpIfFalse)
		fc.loops = append(fc.loops, &loopCtx{})
		if err := fc.stmt(st.Body, false); err != nil {
			return err
		}
		loop := fc.loops[len(fc.loops)-1]
		fc.loops = fc.loops[:len(fc.loops)-1]
		for _, p := range loop.continuePatches {
			fc.patchTo(p, condPos)
		}
		fc.emit(st.line, mavm.OpJump, condPos)
		fc.patchHere(exitJump)
		for _, p := range loop.breakPatches {
			fc.patchHere(p)
		}
		return nil

	case *ForStmt:
		return fc.forStmt(st)

	case *ReturnStmt:
		if st.Value != nil {
			if err := fc.expr(st.Value); err != nil {
				return err
			}
		} else {
			fc.emit(st.line, mavm.OpNil)
		}
		fc.emit(st.line, mavm.OpReturn)
		return nil

	case *BreakStmt:
		if len(fc.loops) == 0 {
			return errAt(st.line, st.col, "break outside loop")
		}
		p := fc.emitJump(st.line, mavm.OpJump)
		loop := fc.loops[len(fc.loops)-1]
		loop.breakPatches = append(loop.breakPatches, p)
		return nil

	case *ContinueStmt:
		if len(fc.loops) == 0 {
			return errAt(st.line, st.col, "continue outside loop")
		}
		p := fc.emitJump(st.line, mavm.OpJump)
		loop := fc.loops[len(fc.loops)-1]
		loop.continuePatches = append(loop.continuePatches, p)
		return nil

	default:
		line, col := s.Pos()
		return errAt(line, col, "unhandled statement %T", s)
	}
}

// forStmt compiles `for x in seq { body }` into an index loop over
// iter(seq) using hidden locals, so no iterator state ever exists
// outside plain VM values (which keeps snapshots simple).
func (fc *funcCompiler) forStmt(st *ForStmt) error {
	iterIdx, ok := mavm.BuiltinIndex("iter")
	if !ok {
		return fmt.Errorf("mascript: internal error: iter builtin missing")
	}
	lenIdx, _ := mavm.BuiltinIndex("len")

	fc.pushScope()
	defer fc.popScope()
	fc.hidden++
	seqSlot := fc.declareLocal(fmt.Sprintf("#seq%d", fc.hidden))
	idxSlot := fc.declareLocal(fmt.Sprintf("#idx%d", fc.hidden))
	varSlot := fc.declareLocal(st.Var)

	// #seq = iter(seq); #idx = 0
	if err := fc.expr(st.Seq); err != nil {
		return err
	}
	fc.emit(st.line, mavm.OpCallBuiltin, iterIdx, 1)
	fc.emit(st.line, mavm.OpStoreLocal, seqSlot)
	zero, err := fc.c.constant(mavm.Int(0))
	if err != nil {
		return err
	}
	fc.emit(st.line, mavm.OpConst, zero)
	fc.emit(st.line, mavm.OpStoreLocal, idxSlot)

	// while #idx < len(#seq)
	condPos := len(fc.fn.Code)
	fc.emit(st.line, mavm.OpLoadLocal, idxSlot)
	fc.emit(st.line, mavm.OpLoadLocal, seqSlot)
	fc.emit(st.line, mavm.OpCallBuiltin, lenIdx, 1)
	fc.emit(st.line, mavm.OpLt)
	exitJump := fc.emitJump(st.line, mavm.OpJumpIfFalse)

	// x = #seq[#idx]
	fc.emit(st.line, mavm.OpLoadLocal, seqSlot)
	fc.emit(st.line, mavm.OpLoadLocal, idxSlot)
	fc.emit(st.line, mavm.OpIndex)
	fc.emit(st.line, mavm.OpStoreLocal, varSlot)

	fc.loops = append(fc.loops, &loopCtx{})
	if err := fc.stmt(st.Body, false); err != nil {
		return err
	}
	loop := fc.loops[len(fc.loops)-1]
	fc.loops = fc.loops[:len(fc.loops)-1]

	// continue target: the increment.
	incPos := len(fc.fn.Code)
	for _, p := range loop.continuePatches {
		fc.patchTo(p, incPos)
	}
	one, err := fc.c.constant(mavm.Int(1))
	if err != nil {
		return err
	}
	fc.emit(st.line, mavm.OpLoadLocal, idxSlot)
	fc.emit(st.line, mavm.OpConst, one)
	fc.emit(st.line, mavm.OpAdd)
	fc.emit(st.line, mavm.OpStoreLocal, idxSlot)
	fc.emit(st.line, mavm.OpJump, condPos)

	fc.patchHere(exitJump)
	for _, p := range loop.breakPatches {
		fc.patchHere(p)
	}
	return nil
}

func (fc *funcCompiler) assign(st *AssignStmt) error {
	switch target := st.Target.(type) {
	case *Ident:
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		if slot, ok := fc.resolveLocal(target.Name); ok {
			fc.emit(st.line, mavm.OpStoreLocal, slot)
			return nil
		}
		if slot, ok := fc.c.globalIdx[target.Name]; ok {
			fc.emit(st.line, mavm.OpStoreGlobal, slot)
			return nil
		}
		return errAt(target.line, target.col, "assignment to undeclared variable %q", target.Name)
	case *IndexExpr:
		if err := fc.expr(target.X); err != nil {
			return err
		}
		if err := fc.expr(target.Index); err != nil {
			return err
		}
		if err := fc.expr(st.Value); err != nil {
			return err
		}
		fc.emit(st.line, mavm.OpSetIndex)
		return nil
	default:
		return errAt(st.line, st.col, "invalid assignment target %T", st.Target)
	}
}

// --- expressions --------------------------------------------------------

func (fc *funcCompiler) expr(e Expr) error {
	switch ex := e.(type) {
	case *IntLit:
		idx, err := fc.c.constant(mavm.Int(ex.Value))
		if err != nil {
			return err
		}
		fc.emit(ex.line, mavm.OpConst, idx)
		return nil
	case *FloatLit:
		idx, err := fc.c.constant(mavm.Float(ex.Value))
		if err != nil {
			return err
		}
		fc.emit(ex.line, mavm.OpConst, idx)
		return nil
	case *StrLit:
		idx, err := fc.c.constant(mavm.Str(ex.Value))
		if err != nil {
			return err
		}
		fc.emit(ex.line, mavm.OpConst, idx)
		return nil
	case *BoolLit:
		if ex.Value {
			fc.emit(ex.line, mavm.OpTrue)
		} else {
			fc.emit(ex.line, mavm.OpFalse)
		}
		return nil
	case *NilLit:
		fc.emit(ex.line, mavm.OpNil)
		return nil

	case *Ident:
		if slot, ok := fc.resolveLocal(ex.Name); ok {
			fc.emit(ex.line, mavm.OpLoadLocal, slot)
			return nil
		}
		if slot, ok := fc.c.globalIdx[ex.Name]; ok {
			fc.emit(ex.line, mavm.OpLoadGlobal, slot)
			return nil
		}
		return errAt(ex.line, ex.col, "undefined variable %q", ex.Name)

	case *ListLit:
		if len(ex.Items) > math.MaxUint16 {
			return errAt(ex.line, ex.col, "list literal too long")
		}
		for _, it := range ex.Items {
			if err := fc.expr(it); err != nil {
				return err
			}
		}
		fc.emit(ex.line, mavm.OpMakeList, len(ex.Items))
		return nil

	case *MapLit:
		if len(ex.Keys) > math.MaxUint16 {
			return errAt(ex.line, ex.col, "map literal too long")
		}
		for i := range ex.Keys {
			idx, err := fc.c.constant(mavm.Str(ex.Keys[i]))
			if err != nil {
				return err
			}
			fc.emit(ex.line, mavm.OpConst, idx)
			if err := fc.expr(ex.Values[i]); err != nil {
				return err
			}
		}
		fc.emit(ex.line, mavm.OpMakeMap, len(ex.Keys))
		return nil

	case *UnaryExpr:
		if err := fc.expr(ex.X); err != nil {
			return err
		}
		if ex.Op == tokBang {
			fc.emit(ex.line, mavm.OpNot)
		} else {
			fc.emit(ex.line, mavm.OpNeg)
		}
		return nil

	case *BinaryExpr:
		return fc.binary(ex)

	case *CallExpr:
		return fc.call(ex)

	case *IndexExpr:
		if err := fc.expr(ex.X); err != nil {
			return err
		}
		if err := fc.expr(ex.Index); err != nil {
			return err
		}
		fc.emit(ex.line, mavm.OpIndex)
		return nil

	default:
		line, col := e.Pos()
		return errAt(line, col, "unhandled expression %T", e)
	}
}

func (fc *funcCompiler) binary(ex *BinaryExpr) error {
	// Short-circuit forms keep the deciding operand as the result.
	if ex.Op == tokAndAnd || ex.Op == tokOrOr {
		if err := fc.expr(ex.L); err != nil {
			return err
		}
		fc.emit(ex.line, mavm.OpDup)
		var skip int
		if ex.Op == tokAndAnd {
			skip = fc.emitJump(ex.line, mavm.OpJumpIfFalse)
		} else {
			skip = fc.emitJump(ex.line, mavm.OpJumpIfTrue)
		}
		fc.emit(ex.line, mavm.OpPop)
		if err := fc.expr(ex.R); err != nil {
			return err
		}
		fc.patchHere(skip)
		return nil
	}

	if err := fc.expr(ex.L); err != nil {
		return err
	}
	if err := fc.expr(ex.R); err != nil {
		return err
	}
	ops := map[TokenType]mavm.Op{
		tokPlus: mavm.OpAdd, tokMinus: mavm.OpSub, tokStar: mavm.OpMul,
		tokSlash: mavm.OpDiv, tokPercent: mavm.OpMod,
		tokEq: mavm.OpEq, tokNe: mavm.OpNe,
		tokLt: mavm.OpLt, tokLe: mavm.OpLe, tokGt: mavm.OpGt, tokGe: mavm.OpGe,
	}
	op, ok := ops[ex.Op]
	if !ok {
		return errAt(ex.line, ex.col, "unhandled operator %v", ex.Op)
	}
	fc.emit(ex.line, op)
	return nil
}

func (fc *funcCompiler) call(ex *CallExpr) error {
	if len(ex.Args) > 255 {
		return errAt(ex.line, ex.col, "too many arguments")
	}
	for _, a := range ex.Args {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	if fnIdx, ok := fc.c.funcIdx[ex.Name]; ok {
		want := fc.c.prog.Functions[fnIdx].NumParams
		if len(ex.Args) != want {
			return errAt(ex.line, ex.col, "%s expects %d argument(s), got %d", ex.Name, want, len(ex.Args))
		}
		fc.emit(ex.line, mavm.OpCall, fnIdx, len(ex.Args))
		return nil
	}
	if _, shadowed := fc.resolveLocal(ex.Name); shadowed {
		return errAt(ex.line, ex.col, "%q is a variable, not a function", ex.Name)
	}
	if _, isGlobal := fc.c.globalIdx[ex.Name]; isGlobal {
		return errAt(ex.line, ex.col, "%q is a variable, not a function", ex.Name)
	}
	if bIdx, ok := mavm.BuiltinIndex(ex.Name); ok {
		fc.emit(ex.line, mavm.OpCallBuiltin, bIdx, len(ex.Args))
		return nil
	}
	return errAt(ex.line, ex.col, "undefined function %q", ex.Name)
}
