package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// lockOp classifies call as Lock, RLock, Unlock or RUnlock on a
// sync.Mutex/RWMutex. It returns the call's selector (sel.X is the lock
// operand), +1 for an acquire, -1 for a release or 0 for any other call, and
// whether the op is read-side.
func lockOp(info *types.Info, call *ast.CallExpr) (sel *ast.SelectorExpr, op int, read bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = 1
	case "RLock":
		op, read = 1, true
	case "Unlock":
		op = -1
	case "RUnlock":
		op, read = -1, true
	default:
		return nil, 0, false
	}
	fn := calleeAnyFunc(info, call)
	if fn == nil {
		return nil, 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return nil, 0, false
	}
	return sel, op, read
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, or a pointer
// to one.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// heldLocks is the set of lock keys held at a program point. Each rule picks
// its own key: the lock operand's expression text, or its lock class.
type heldLocks map[string]bool

// anyKey returns a deterministic representative held-lock key for messages.
func (h heldLocks) anyKey() string {
	best := ""
	for k := range h {
		if best == "" || k < best {
			best = k
		}
	}
	if best == callerLock {
		return "the caller's lock (…Locked convention)"
	}
	return best
}

// callerLock is the held key standing for the lock a ...Locked function's
// caller holds.
const callerLock = "<caller>"

// trackLockExprs applies the lock ops in n to held, keyed by the lock
// operand's expression text. Nested function literals are skipped: their
// bodies run in their own lock scope.
func trackLockExprs(info *types.Info, n ast.Node, held heldLocks) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, op, _ := lockOp(info, call); op > 0 {
				held[types.ExprString(sel.X)] = true
			} else if op < 0 {
				delete(held, types.ExprString(sel.X))
			}
		}
		return true
	})
}

// lockWalker is the held-lock statement interpreter shared by eventhygiene,
// chanflow and lockorder. It walks statements in order; branch bodies fork
// the held set, so an unlock on one path does not clear another, and a go
// statement's function literal starts with nothing held. The rule supplies
// the visitors.
type lockWalker struct {
	// leaf visits a statement the walker does not descend into. It must
	// apply the statement's lock ops to held.
	leaf func(n ast.Node, held heldLocks)
	// expr, when set, visits an expression evaluated under held: an if
	// condition, a range operand, a go call's argument.
	expr func(n ast.Node, held heldLocks)
	// selectStmt, when set, visits a select before its clauses are walked.
	selectStmt func(s *ast.SelectStmt, held heldLocks)
	// deferStmt, when set, visits a defer. Unset, defers are skipped: defer
	// mu.Unlock() keeps the lock held for the rest of the function, and a
	// deferred closure runs outside this lock scope.
	deferStmt func(s *ast.DeferStmt, held heldLocks)
}

func (w *lockWalker) walk(stmts []ast.Stmt, held heldLocks) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			if w.deferStmt != nil {
				w.deferStmt(s, held)
			}
		case *ast.GoStmt:
			// The arguments evaluate here under our locks; the body runs on
			// its own stack with none of them.
			for _, a := range s.Call.Args {
				w.visitExpr(a, held)
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				w.walk(lit.Body.List, heldLocks{})
			}
		case *ast.BlockStmt:
			w.walk(s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				w.walk([]ast.Stmt{s.Init}, held)
			}
			w.visitExpr(s.Cond, held)
			w.walk(s.Body.List, maps.Clone(held))
			if s.Else != nil {
				w.walk([]ast.Stmt{s.Else}, maps.Clone(held))
			}
		case *ast.ForStmt:
			w.walk(s.Body.List, maps.Clone(held))
		case *ast.RangeStmt:
			w.visitExpr(s.X, held)
			w.walk(s.Body.List, maps.Clone(held))
		case *ast.SwitchStmt:
			w.walkClauses(s.Body, held)
		case *ast.TypeSwitchStmt:
			w.walkClauses(s.Body, held)
		case *ast.SelectStmt:
			if w.selectStmt != nil {
				w.selectStmt(s, held)
			}
			w.walkClauses(s.Body, held)
		default:
			w.leaf(stmt, held)
		}
	}
}

// walkClauses walks each case or comm clause body on its own fork of held.
func (w *lockWalker) walkClauses(body *ast.BlockStmt, held heldLocks) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			w.walk(c.Body, maps.Clone(held))
		case *ast.CommClause:
			w.walk(c.Body, maps.Clone(held))
		}
	}
}

func (w *lockWalker) visitExpr(e ast.Expr, held heldLocks) {
	if w.expr != nil {
		w.expr(e, held)
	}
}
