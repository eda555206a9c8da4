package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// eventPkgPath is the canonical event stream package; every Recorder
// emission anywhere in the module is held to its registry.
const eventPkgPath = "paratune/internal/event"

// EmitsEvent is the cross-package fact marking a function that (possibly
// transitively) calls an event.Recorder, so callers holding a mutex can be
// warned even when the emission hides behind a helper in another package.
type EmitsEvent struct{}

// AFact marks EmitsEvent as a fact.
func (*EmitsEvent) AFact() {}

func (*EmitsEvent) String() string { return "EmitsEvent" }

// EventHygiene checks every event.Recorder emission in the module:
//
//   - the emitted value's concrete type must be declared in the event
//     package (the registry of kinds the trace format understands);
//   - the payload must not derive from the wall clock — traces must be
//     byte-identical across runs of the same seed;
//   - the emission must not happen while a mutex is held: recorders are
//     externally supplied and may block (JSONL to a slow disk), turning a
//     hot lock into a convoy, and a locking recorder can deadlock.
//
// The mutex check tracks Lock/Unlock pairs statement-by-statement within a
// function (defer Unlock holds to the end, branches fork the held set) and
// follows emissions into helpers via the EmitsEvent fact.
var EventHygiene = &Analyzer{
	Name:      "eventhygiene",
	Doc:       "event emissions use registered kinds, no wall-clock payload, never under a mutex",
	FactTypes: []Fact{(*EmitsEvent)(nil)},
	Run:       runEventHygiene,
}

// isRecordCall reports whether call invokes a Record method taking an
// event.Event (the Recorder interface or any implementation of it).
func isRecordCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeAnyFunc(info, call)
	if fn == nil || fn.Name() != "Record" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == eventPkgPath
}

func runEventHygiene(pass *Pass) {
	// Phase 1: mark this package's functions that transitively emit, and
	// export the facts.
	emits := make(map[*types.Func]bool)
	isEmitter := func(fn *types.Func) bool {
		if emits[fn] {
			return true
		}
		var e EmitsEvent
		return pass.ImportObjectFact(fn, &e)
	}
	for changed := true; changed; {
		changed = false
		for _, d := range pass.ctx.funcs {
			if emits[d.fn] {
				continue
			}
			found := false
			ast.Inspect(d.decl.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isRecordCall(pass.Info, call) {
					found = true
				} else if callee := calleeAnyFunc(pass.Info, call); callee != nil && callee != d.fn && isEmitter(callee) {
					found = true
				}
				return !found
			})
			if found {
				emits[d.fn] = true
				changed = true
			}
		}
	}
	for fn := range emits {
		pass.ExportObjectFact(fn, &EmitsEvent{})
	}

	// The event package itself implements recorders; its Record methods and
	// helpers are the machinery, not emission sites.
	if strings.TrimSuffix(pass.Pkg.Path(), "_test") == eventPkgPath {
		return
	}

	// Phase 2: payload checks at every Record call site.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRecordCall(pass.Info, call) || len(call.Args) != 1 {
				return true
			}
			checkEventPayload(pass, call.Args[0])
			return true
		})
	}

	// Phase 3: no emission while a mutex is held. Lock ops are accounted
	// after the emission check of the same statement (mu.Lock();
	// rec.Record(e) on one line is two statements, so ordering within one
	// statement is moot).
	w := &lockWalker{
		leaf: func(n ast.Node, held heldLocks) {
			checkEmissions(pass, n, held, isEmitter)
			trackLockExprs(pass.Info, n, held)
		},
		expr: func(n ast.Node, held heldLocks) { checkEmissions(pass, n, held, isEmitter) },
	}
	for _, d := range pass.ctx.funcs {
		held := heldLocks{}
		if strings.HasSuffix(d.decl.Name.Name, "Locked") {
			held[callerLock] = true // ...Locked convention: caller holds a lock
		}
		w.walk(d.decl.Body.List, held)
	}
}

// checkEventPayload verifies the emitted value's type registration and
// wall-clock independence.
func checkEventPayload(pass *Pass, arg ast.Expr) {
	t := pass.Info.TypeOf(arg)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if _, isIface := named.Underlying().(*types.Interface); !isIface &&
			obj.Pkg() != nil && strings.TrimSuffix(obj.Pkg().Path(), "_test") != eventPkgPath {
			pass.Reportf(arg.Pos(),
				"event type %s is not registered in %s; declare it there so trace decoding knows the kind",
				obj.Name(), eventPkgPath)
		}
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeAnyFunc(pass.Info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "time" && isWallClockFunc(fn.Name()) {
			pass.Reportf(call.Pos(),
				"event payload derives from the wall clock (time.%s); traces must be identical across runs of one seed",
				fn.Name())
		}
		return true
	})
}

// checkEmissions reports Record calls (and calls to EmitsEvent functions)
// in n's expression tree while held is non-empty, skipping nested function
// literals (their bodies run in their own lock scope).
func checkEmissions(pass *Pass, n ast.Node, held heldLocks, isEmitter func(*types.Func) bool) {
	if len(held) == 0 || n == nil {
		return
	}
	lock := held.anyKey()
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRecordCall(pass.Info, call) {
			pass.Reportf(call.Pos(),
				"event emitted while holding %s; recorders may block or re-enter — emit after unlocking",
				lock)
		} else if fn := calleeAnyFunc(pass.Info, call); fn != nil && isEmitter(fn) {
			pass.Reportf(call.Pos(),
				"%s emits events and is called while holding %s; emit after unlocking",
				fn.Name(), lock)
		}
		return true
	})
}
