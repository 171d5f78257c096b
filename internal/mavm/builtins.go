package mavm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Host is the interface an executing agent uses to touch the world: the
// mobile-agent server implements it at every network site. All other
// computation is pure VM work.
type Host interface {
	// HostName returns the address of the host the agent is currently
	// executing at.
	HostName() string
	// HomeAddr returns the agent's home (the gateway it was dispatched
	// from and must return results to).
	HomeAddr() string
	// CallService invokes a resident service agent by name. The error
	// is a *system* failure (no such service); services report
	// application-level failures inside the returned value.
	CallService(name string, args []Value) (Value, error)
	// Log records an agent log line at the current host.
	Log(agentID, msg string)
}

// builtinFunc implements one builtin. Suspension (migrate) is handled
// by the VM after the call returns.
type builtinFunc func(vm *VM, args []Value) (Value, error)

type builtinSpec struct {
	name     string
	minArgs  int
	maxArgs  int // -1 = variadic
	fn       builtinFunc
	needHost bool
}

// builtinRegistry is ordered: indexes are baked into compiled programs,
// so entries must only ever be appended.
var builtinRegistry = []builtinSpec{
	{"len", 1, 1, biLen, false},
	{"push", 2, 2, biPush, false},
	{"pop", 1, 1, biPop, false},
	{"str", 1, 1, biStr, false},
	{"int", 1, 1, biInt, false},
	{"float", 1, 1, biFloat, false},
	{"keys", 1, 1, biKeys, false},
	{"has", 2, 2, biHas, false},
	{"del", 2, 2, biDel, false},
	{"substr", 3, 3, biSubstr, false},
	{"find", 2, 2, biFind, false},
	{"split", 2, 2, biSplit, false},
	{"join", 2, 2, biJoin, false},
	{"upper", 1, 1, biUpper, false},
	{"lower", 1, 1, biLower, false},
	{"trim", 1, 1, biTrim, false},
	{"abs", 1, 1, biAbs, false},
	{"min", 2, 2, biMin, false},
	{"max", 2, 2, biMax, false},
	{"floor", 1, 1, biFloor, false},
	{"range", 1, 2, biRange, false},
	{"sort", 1, 1, biSort, false},
	{"type", 1, 1, biType, false},
	{"param", 1, 2, biParam, false},
	{"params", 0, 0, biParams, false},
	{"migrate", 1, 1, biMigrate, true},
	{"home", 0, 0, biHome, true},
	{"here", 0, 0, biHere, true},
	{"service", 1, -1, biService, true},
	{"deliver", 2, 2, biDeliver, false},
	{"log", 1, 1, biLog, true},
	{"hops", 0, 0, biHops, false},
	{"agentid", 0, 0, biAgentID, false},
	// iter backs the compiler's for-in desugaring; it is also callable
	// directly. Entries may only ever be appended to this registry.
	{"iter", 1, 1, biIter, false},
}

// BuiltinIndex returns the registry index for a builtin name, for the
// compiler. The second result is false for unknown names.
func BuiltinIndex(name string) (int, bool) {
	for i, b := range builtinRegistry {
		if b.name == name {
			return i, true
		}
	}
	return 0, false
}

// BuiltinNames lists all builtin names (for documentation and the
// compiler's diagnostics).
func BuiltinNames() []string {
	out := make([]string, len(builtinRegistry))
	for i, b := range builtinRegistry {
		out[i] = b.name
	}
	return out
}

func argErr(name string, msg string) error {
	return fmt.Errorf("%s: %s", name, msg)
}

func biLen(_ *VM, args []Value) (Value, error) {
	switch v := args[0]; v.Kind() {
	case KindStr:
		return Int(int64(len(v.AsStr()))), nil
	case KindList:
		return Int(int64(len(v.ListItems()))), nil
	case KindMap:
		return Int(int64(len(v.MapEntries()))), nil
	default:
		return Nil(), argErr("len", fmt.Sprintf("want str/list/map, got %v", v.Kind()))
	}
}

func biPush(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindList {
		return Nil(), argErr("push", fmt.Sprintf("want list, got %v", args[0].Kind()))
	}
	vm.detach()
	args[0].list.Items = append(args[0].list.Items, args[1])
	return args[0], nil
}

func biPop(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindList {
		return Nil(), argErr("pop", fmt.Sprintf("want list, got %v", args[0].Kind()))
	}
	items := args[0].list.Items
	if len(items) == 0 {
		return Nil(), argErr("pop", "empty list")
	}
	vm.detach()
	last := items[len(items)-1]
	args[0].list.Items = items[:len(items)-1]
	return last, nil
}

func biStr(_ *VM, args []Value) (Value, error) {
	return Str(args[0].String()), nil
}

func biInt(_ *VM, args []Value) (Value, error) {
	switch v := args[0]; v.Kind() {
	case KindInt:
		return v, nil
	case KindFloat:
		return Int(int64(v.AsFloat())), nil
	case KindBool:
		if v.AsBool() {
			return Int(1), nil
		}
		return Int(0), nil
	case KindStr:
		n, err := strconv.ParseInt(strings.TrimSpace(v.AsStr()), 10, 64)
		if err != nil {
			return Nil(), argErr("int", fmt.Sprintf("cannot parse %q", v.AsStr()))
		}
		return Int(n), nil
	default:
		return Nil(), argErr("int", fmt.Sprintf("cannot convert %v", v.Kind()))
	}
}

func biFloat(_ *VM, args []Value) (Value, error) {
	switch v := args[0]; v.Kind() {
	case KindInt, KindFloat:
		return Float(v.AsFloat()), nil
	case KindStr:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.AsStr()), 64)
		if err != nil {
			return Nil(), argErr("float", fmt.Sprintf("cannot parse %q", v.AsStr()))
		}
		return Float(f), nil
	default:
		return Nil(), argErr("float", fmt.Sprintf("cannot convert %v", v.Kind()))
	}
}

func biKeys(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindMap {
		return Nil(), argErr("keys", fmt.Sprintf("want map, got %v", args[0].Kind()))
	}
	keys := args[0].MapKeys()
	items := make([]Value, len(keys))
	for i, k := range keys {
		items[i] = Str(k)
	}
	return NewList(items...), nil
}

func biHas(_ *VM, args []Value) (Value, error) {
	switch c := args[0]; c.Kind() {
	case KindMap:
		if args[1].Kind() != KindStr {
			return Nil(), argErr("has", "map key must be str")
		}
		_, ok := c.MapEntries()[args[1].AsStr()]
		return Bool(ok), nil
	case KindList:
		for _, it := range c.ListItems() {
			if it.Equal(args[1]) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case KindStr:
		if args[1].Kind() != KindStr {
			return Nil(), argErr("has", "substring must be str")
		}
		return Bool(strings.Contains(c.AsStr(), args[1].AsStr())), nil
	default:
		return Nil(), argErr("has", fmt.Sprintf("want map/list/str, got %v", c.Kind()))
	}
}

func biDel(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindMap || args[1].Kind() != KindStr {
		return Nil(), argErr("del", "want (map, str)")
	}
	vm.detach()
	delete(args[0].MapEntries(), args[1].AsStr())
	return Nil(), nil
}

func biSubstr(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr || args[1].Kind() != KindInt || args[2].Kind() != KindInt {
		return Nil(), argErr("substr", "want (str, int, int)")
	}
	s := args[0].AsStr()
	from, to := args[1].AsInt(), args[2].AsInt()
	if from < 0 {
		from = 0
	}
	if to > int64(len(s)) {
		to = int64(len(s))
	}
	if from > to {
		return Str(""), nil
	}
	return Str(s[from:to]), nil
}

func biFind(_ *VM, args []Value) (Value, error) {
	switch c := args[0]; c.Kind() {
	case KindStr:
		if args[1].Kind() != KindStr {
			return Nil(), argErr("find", "want (str, str)")
		}
		return Int(int64(strings.Index(c.AsStr(), args[1].AsStr()))), nil
	case KindList:
		for i, it := range c.ListItems() {
			if it.Equal(args[1]) {
				return Int(int64(i)), nil
			}
		}
		return Int(-1), nil
	default:
		return Nil(), argErr("find", fmt.Sprintf("want str/list, got %v", c.Kind()))
	}
}

func biSplit(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr || args[1].Kind() != KindStr {
		return Nil(), argErr("split", "want (str, str)")
	}
	parts := strings.Split(args[0].AsStr(), args[1].AsStr())
	items := make([]Value, len(parts))
	for i, p := range parts {
		items[i] = Str(p)
	}
	return NewList(items...), nil
}

func biJoin(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindList || args[1].Kind() != KindStr {
		return Nil(), argErr("join", "want (list, str)")
	}
	parts := make([]string, len(args[0].ListItems()))
	for i, it := range args[0].ListItems() {
		parts[i] = it.String()
	}
	return Str(strings.Join(parts, args[1].AsStr())), nil
}

func biUpper(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr {
		return Nil(), argErr("upper", "want str")
	}
	return Str(strings.ToUpper(args[0].AsStr())), nil
}

func biLower(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr {
		return Nil(), argErr("lower", "want str")
	}
	return Str(strings.ToLower(args[0].AsStr())), nil
}

func biTrim(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr {
		return Nil(), argErr("trim", "want str")
	}
	return Str(strings.TrimSpace(args[0].AsStr())), nil
}

func biAbs(_ *VM, args []Value) (Value, error) {
	switch v := args[0]; v.Kind() {
	case KindInt:
		if v.AsInt() < 0 {
			return Int(-v.AsInt()), nil
		}
		return v, nil
	case KindFloat:
		return Float(math.Abs(v.AsFloat())), nil
	default:
		return Nil(), argErr("abs", "want number")
	}
}

func numPair(name string, a, b Value) error {
	if !a.isNumber() || !b.isNumber() {
		return argErr(name, "want two numbers")
	}
	return nil
}

func biMin(_ *VM, args []Value) (Value, error) {
	if err := numPair("min", args[0], args[1]); err != nil {
		return Nil(), err
	}
	if args[0].AsFloat() <= args[1].AsFloat() {
		return args[0], nil
	}
	return args[1], nil
}

func biMax(_ *VM, args []Value) (Value, error) {
	if err := numPair("max", args[0], args[1]); err != nil {
		return Nil(), err
	}
	if args[0].AsFloat() >= args[1].AsFloat() {
		return args[0], nil
	}
	return args[1], nil
}

func biFloor(_ *VM, args []Value) (Value, error) {
	if !args[0].isNumber() {
		return Nil(), argErr("floor", "want number")
	}
	return Int(int64(math.Floor(args[0].AsFloat()))), nil
}

// maxRange bounds range() so an agent cannot allocate unbounded memory
// in one call.
const maxRange = 1 << 20

func biRange(_ *VM, args []Value) (Value, error) {
	var from, to int64
	switch len(args) {
	case 1:
		if args[0].Kind() != KindInt {
			return Nil(), argErr("range", "want int")
		}
		to = args[0].AsInt()
	case 2:
		if args[0].Kind() != KindInt || args[1].Kind() != KindInt {
			return Nil(), argErr("range", "want (int, int)")
		}
		from, to = args[0].AsInt(), args[1].AsInt()
	}
	if to < from {
		to = from
	}
	if to-from > maxRange {
		return Nil(), argErr("range", fmt.Sprintf("span %d exceeds limit %d", to-from, maxRange))
	}
	items := make([]Value, 0, to-from)
	for i := from; i < to; i++ {
		items = append(items, Int(i))
	}
	return NewList(items...), nil
}

func biSort(_ *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindList {
		return Nil(), argErr("sort", "want list")
	}
	items := args[0].ListItems()
	out := make([]Value, len(items))
	copy(out, items)
	var sortErr error
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.isNumber() && b.isNumber():
			return a.AsFloat() < b.AsFloat()
		case a.Kind() == KindStr && b.Kind() == KindStr:
			return a.AsStr() < b.AsStr()
		default:
			if sortErr == nil {
				sortErr = argErr("sort", "list mixes non-comparable kinds")
			}
			return false
		}
	})
	if sortErr != nil {
		return Nil(), sortErr
	}
	return NewList(out...), nil
}

func biType(_ *VM, args []Value) (Value, error) {
	return Str(args[0].Kind().String()), nil
}

func biParam(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr {
		return Nil(), argErr("param", "want str name")
	}
	if v, ok := vm.Params[args[0].AsStr()]; ok {
		return v, nil
	}
	if len(args) == 2 {
		return args[1], nil
	}
	return Nil(), nil
}

func biParams(vm *VM, _ []Value) (Value, error) {
	out := NewMap()
	for k, v := range vm.Params {
		out.MapEntries()[k] = v
	}
	return out, nil
}

func biMigrate(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr || args[0].AsStr() == "" {
		return Nil(), argErr("migrate", "want non-empty str host")
	}
	vm.migrateTarget = args[0].AsStr()
	return Nil(), nil
}

func biHome(vm *VM, _ []Value) (Value, error) {
	return Str(vm.host.HomeAddr()), nil
}

func biHere(vm *VM, _ []Value) (Value, error) {
	return Str(vm.host.HostName()), nil
}

func biService(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr {
		return Nil(), argErr("service", "want str service name")
	}
	vm.detach() // a service may keep or change its arguments
	return vm.host.CallService(args[0].AsStr(), args[1:])
}

// biDeliver records a result as the value stands now. It copies
// nothing: the value is appended by reference, and detach copies it
// before anything can change a container it shares with the agent (a
// mutating builtin, a service call, a suspension). An agent that
// delivers last and ends, as e-banking does, has its results taken home
// uncopied. A cyclic or over-deep value still fails here.
func biDeliver(vm *VM, args []Value) (Value, error) {
	if args[0].Kind() != KindStr {
		return Nil(), argErr("deliver", "want str key")
	}
	if err := args[1].checkDepth(0); err != nil {
		return Nil(), err
	}
	vm.Results = append(vm.Results, Result{Key: args[0].AsStr(), Value: args[1]})
	return Nil(), nil
}

func biLog(vm *VM, args []Value) (Value, error) {
	vm.host.Log(vm.AgentID, args[0].String())
	return Nil(), nil
}

func biHops(vm *VM, _ []Value) (Value, error) {
	return Int(int64(vm.Hops)), nil
}

func biAgentID(vm *VM, _ []Value) (Value, error) {
	return Str(vm.AgentID), nil
}

// biIter normalises a container into a list for iteration: lists are
// copied (so mutation inside the loop cannot skip elements), maps yield
// their sorted keys, strings yield one-character strings.
func biIter(_ *VM, args []Value) (Value, error) {
	switch v := args[0]; v.Kind() {
	case KindList:
		items := make([]Value, len(v.ListItems()))
		copy(items, v.ListItems())
		return NewList(items...), nil
	case KindMap:
		return biKeys(nil, args)
	case KindStr:
		s := v.AsStr()
		items := make([]Value, len(s))
		for i := range s {
			items[i] = Str(s[i : i+1])
		}
		return NewList(items...), nil
	default:
		return Nil(), argErr("iter", fmt.Sprintf("cannot iterate %v", v.Kind()))
	}
}
