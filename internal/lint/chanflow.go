package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ChanFlow checks per-channel escape and liveness within a package. Channels
// are grouped into alias classes (a local bound to a field, a field copied
// into a local — `ch := s.resultCh` — all name one runtime channel), and a
// class that is fully visible to the analysis — created by a make in this
// package, unexported, never passed out of the package's hands — must be
// live:
//
//   - a send on an unbuffered class with no receive anywhere in the package
//     can never complete: the goroutine parks forever;
//   - a `range` over a class that is never close()d cannot terminate;
//   - a select with no default while a mutex is held parks the goroutine
//     with the lock held, convoying every other path through that lock.
//
// Classes that escape (passed to a call, returned, sent as a value, stored
// somewhere untrackable, or exported) are skipped: a receiver may exist
// beyond the analysis horizon.
var ChanFlow = &Analyzer{
	Name: "chanflow",
	Doc:  "channel liveness: sends need a receiver, ranged channels need a close, no blocking select under a mutex",
	Run:  runChanFlow,
}

// chanInfo accumulates per-alias-class channel evidence.
type chanInfo struct {
	objs          map[types.Object]bool
	makes         int
	unbuffered    int
	unknownBuf    bool
	sends         []token.Pos
	recvs         int
	closes        int
	ranges        []token.Pos
	escaped       bool
	unknownOrigin bool
}

func runChanFlow(pass *Pass) {
	parent := make(map[types.Object]types.Object)
	info := make(map[types.Object]*chanInfo)
	var find func(o types.Object) types.Object
	find = func(o types.Object) types.Object {
		if p, ok := parent[o]; ok && p != o {
			r := find(p)
			parent[o] = r
			return r
		}
		parent[o] = o
		return o
	}
	get := func(o types.Object) *chanInfo {
		r := find(o)
		ci := info[r]
		if ci == nil {
			ci = &chanInfo{objs: map[types.Object]bool{}}
			info[r] = ci
		}
		ci.objs[o] = true
		return ci
	}
	union := func(a, b types.Object) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		ca, cb := info[ra], info[rb]
		parent[rb] = ra
		if cb == nil {
			return
		}
		if ca == nil {
			info[ra] = cb
			delete(info, rb)
			return
		}
		for o := range cb.objs {
			ca.objs[o] = true
		}
		ca.makes += cb.makes
		ca.unbuffered += cb.unbuffered
		ca.unknownBuf = ca.unknownBuf || cb.unknownBuf
		ca.sends = append(ca.sends, cb.sends...)
		ca.recvs += cb.recvs
		ca.closes += cb.closes
		ca.ranges = append(ca.ranges, cb.ranges...)
		ca.escaped = ca.escaped || cb.escaped
		ca.unknownOrigin = ca.unknownOrigin || cb.unknownOrigin
		delete(info, rb)
	}

	// handled marks ref nodes consumed by a recognized channel operation;
	// any other appearance of a tracked object is an escape.
	handled := make(map[ast.Node]bool)
	ref := func(x ast.Expr) (types.Object, ast.Node) {
		x = ast.Unparen(x)
		switch e := x.(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			if v, ok := obj.(*types.Var); ok && isChanVar(v) {
				return v, e
			}
		case *ast.SelectorExpr:
			if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && isChanVar(v) {
				return v, e
			}
		}
		return nil, nil
	}
	mark := func(n ast.Node) {
		handled[n] = true
		if sel, ok := n.(*ast.SelectorExpr); ok {
			handled[sel.Sel] = true
			handled[sel.X] = true // the receiver ident is part of the ref
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				chanAssign(pass, s.Lhs, s.Rhs, ref, mark, get, union)
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(s.Names))
				for i, name := range s.Names {
					lhs[i] = name
				}
				chanAssign(pass, lhs, s.Values, ref, mark, get, union)
			case *ast.SendStmt:
				if obj, node := ref(s.Chan); obj != nil {
					ci := get(obj)
					ci.sends = append(ci.sends, s.Arrow)
					mark(node)
				}
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					if obj, node := ref(s.X); obj != nil {
						get(obj).recvs++
						mark(node)
					}
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(s.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						if obj, node := ref(s.X); obj != nil {
							ci := get(obj)
							ci.ranges = append(ci.ranges, s.For)
							ci.recvs++
							mark(node)
						}
					}
				}
			case *ast.CallExpr:
				id, ok := ast.Unparen(s.Fun).(*ast.Ident)
				if !ok || len(s.Args) == 0 {
					return true
				}
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				switch id.Name {
				case "close":
					if obj, node := ref(s.Args[0]); obj != nil {
						get(obj).closes++
						mark(node)
					}
				case "len", "cap":
					if obj, node := ref(s.Args[0]); obj != nil {
						get(obj) // observed, but neither op nor escape
						mark(node)
					}
				}
			}
			return true
		})
	}

	// Escape pass: any use of a tracked object not consumed above hands the
	// channel to code the class analysis cannot see.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if handled[n] {
				if _, ok := n.(*ast.SelectorExpr); ok {
					return false
				}
				return true
			}
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && isChanVar(v) {
					if _, tracked := parent[v]; tracked {
						get(v).escaped = true
					}
				}
			case *ast.Ident:
				if v, ok := pass.Info.Uses[e].(*types.Var); ok && isChanVar(v) {
					if _, tracked := parent[v]; tracked {
						get(v).escaped = true
					}
				}
			}
			return true
		})
	}

	pkgPath := pass.Pkg.Path()
	for _, ci := range info {
		eligible := !ci.escaped && !ci.unknownOrigin && ci.makes > 0
		for o := range ci.objs {
			if o.Exported() || o.Pkg() == nil || o.Pkg().Path() != pkgPath {
				eligible = false
			}
		}
		if !eligible {
			continue
		}
		name := chanClassName(ci)
		if len(ci.sends) > 0 && ci.recvs == 0 && !ci.unknownBuf && ci.unbuffered == ci.makes {
			sort.Slice(ci.sends, func(i, j int) bool { return ci.sends[i] < ci.sends[j] })
			for _, pos := range ci.sends {
				pass.Reportf(pos, "send on unbuffered channel %s with no receive anywhere in the package; the sender parks forever", name)
			}
		}
		if len(ci.ranges) > 0 && ci.closes == 0 {
			sort.Slice(ci.ranges, func(i, j int) bool { return ci.ranges[i] < ci.ranges[j] })
			for _, pos := range ci.ranges {
				pass.Reportf(pos, "range over channel %s, which is never closed in the package; the loop cannot terminate", name)
			}
		}
	}

	// Blocking select under a held mutex.
	w := &lockWalker{
		leaf: func(n ast.Node, held heldLocks) { trackLockExprs(pass.Info, n, held) },
		selectStmt: func(s *ast.SelectStmt, held heldLocks) {
			if len(held) > 0 && !selectHasDefault(s) {
				pass.Reportf(s.Select,
					"blocking select while holding %s; the goroutine can park with the lock held, convoying every other path through it — add a default or move the select after unlocking",
					held.anyKey())
			}
		},
	}
	for _, d := range pass.ctx.funcs {
		w.walk(d.decl.Body.List, heldLocks{})
	}
}

// chanAssign interprets one (possibly parallel) assignment for channel
// dataflow: make() establishes a class origin, ref = ref aliases two classes,
// nil is inert, and anything else is an unknown origin.
func chanAssign(pass *Pass, lhs, rhs []ast.Expr,
	ref func(ast.Expr) (types.Object, ast.Node), mark func(ast.Node),
	get func(types.Object) *chanInfo, union func(a, b types.Object)) {
	if len(lhs) != len(rhs) {
		// Tuple assignment from a call or receive: channel-typed targets
		// gain values the class analysis cannot trace.
		for _, l := range lhs {
			if obj, node := ref(l); obj != nil {
				get(obj).unknownOrigin = true
				mark(node)
			}
		}
		return
	}
	for i := range lhs {
		obj, node := ref(lhs[i])
		r := ast.Unparen(rhs[i])
		if obj == nil {
			continue
		}
		if call, ok := r.(*ast.CallExpr); ok && isMakeChan(pass.Info, call) {
			ci := get(obj)
			ci.makes++
			buffered, known := makeChanBuffered(pass.Info, call)
			if !known {
				ci.unknownBuf = true
			} else if !buffered {
				ci.unbuffered++
			}
			mark(node)
			continue
		}
		if robj, rnode := ref(r); robj != nil {
			union(obj, robj)
			mark(node)
			mark(rnode)
			continue
		}
		if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
			mark(node)
			continue
		}
		get(obj).unknownOrigin = true
		mark(node)
	}
}

// isChanVar reports whether v's type is a channel.
func isChanVar(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Chan)
	return ok
}

// isMakeChan reports whether call is make(chan T[, n]).
func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// makeChanBuffered reports whether the make site has a constant capacity > 0;
// known is false when the capacity is a non-constant expression.
func makeChanBuffered(info *types.Info, call *ast.CallExpr) (buffered, known bool) {
	if len(call.Args) < 2 {
		return false, true
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false, false
	}
	return tv.Value.String() != "0", true
}

// selectHasDefault reports whether sel has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// chanClassName picks a deterministic display name for a channel class.
func chanClassName(ci *chanInfo) string {
	best := ""
	for o := range ci.objs {
		if best == "" || o.Name() < best {
			best = o.Name()
		}
	}
	return best
}
