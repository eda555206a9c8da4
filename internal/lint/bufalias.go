package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// BufOrigin marks a function whose returned []byte aliases a connection
// read/decode buffer and is therefore valid only until the next read on
// that connection. The root annotations are //paralint:framebuf directives;
// the analyzer propagates the property to any function that returns a
// frame-aliased slice it obtained from one.
type BufOrigin struct {
	// Why records how the function became an origin, for call-site messages.
	Why string
}

// AFact marks BufOrigin as a paralint fact.
func (*BufOrigin) AFact() {}

// BufRetains records which []byte parameters of a function escape the call:
// stored to a struct or map field, sent on a channel, or captured by a
// spawned goroutine. Passing a frame-aliased slice at a retained index is a
// retention past the frame lifetime, even across package boundaries.
type BufRetains struct {
	Params []int
}

// AFact marks BufRetains as a paralint fact.
func (*BufRetains) AFact() {}

// BufAlias enforces the buffer-ownership contract of the zero-copy PHWIRE1
// path (DESIGN.md "Buffer ownership"): a slice derived from a
// //paralint:framebuf function must not outlive its frame. Retention —
// struct-field store, channel send, goroutine capture, or a call that
// retains the parameter — requires an explicit copy, and the mechanical
// -fix inserts `append([]byte(nil), x...)`.
var BufAlias = &Analyzer{
	Name:      "bufalias",
	Doc:       "[]byte slices aliasing connection read buffers (declared //paralint:framebuf) must not be retained past the frame lifetime without an explicit copy",
	FactTypes: []Fact{(*BufOrigin)(nil), (*BufRetains)(nil)},
	Run:       runBufAlias,
}

const framebufPrefix = "paralint:framebuf"

// bufFuncState is the per-function fixpoint state: whether the function
// returns a frame-aliased slice, and which of its []byte parameters escape.
type bufFuncState struct {
	fd      *ast.FuncDecl
	fn      *types.Func
	origin  bool
	why     string
	retains map[int]bool
}

func runBufAlias(pass *Pass) {
	states := make(map[*types.Func]*bufFuncState)
	var order []*bufFuncState
	for _, d := range pass.ctx.funcs {
		st := &bufFuncState{fd: d.decl, fn: d.fn, retains: make(map[int]bool)}
		states[d.fn] = st
		order = append(order, st)
	}

	// Root annotations. A directive on a function that returns no []byte, or
	// one annotating no function at all, is config rot — the directive
	// category makes the driver fail distinctly.
	consumed := make(map[*ast.Comment]bool)
	for _, st := range order {
		c := framebufComment(pass, st.fd)
		if c == nil {
			continue
		}
		consumed[c] = true
		if !returnsByteSlice(pass, st.fd) {
			pass.ReportDirective(c.Pos(),
				"//paralint:framebuf directive on %s, which returns no []byte — the directive marks functions whose returned slice aliases the connection read buffer",
				st.fd.Name.Name)
			continue
		}
		st.origin = true
		st.why = "declared //paralint:framebuf"
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if isDirective(c.Text, framebufPrefix) && !consumed[c] {
					pass.ReportDirective(c.Pos(),
						"//paralint:framebuf directive does not annotate a function declaration")
				}
			}
		}
	}

	// Fixpoint: a function is an origin if it returns a frame-aliased slice,
	// and retains a parameter if the parameter reaches a retention sink —
	// either may depend on the other functions' state, in or out of package.
	env := &bufEnv{pass: pass, states: states}
	for changed := true; changed; {
		changed = false
		for _, st := range order {
			r := env.analyzeFunc(st, nil)
			if r.returnsOrigin && !st.origin {
				st.origin = true
				st.why = "returns a slice obtained from " + r.returnsWhy
				changed = true
			}
			for idx := range r.retains {
				if !st.retains[idx] {
					st.retains[idx] = true
					changed = true
				}
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].fn.FullName() < order[j].fn.FullName() })
	for _, st := range order {
		if st.origin {
			pass.ExportObjectFact(st.fn, &BufOrigin{Why: st.why})
		}
		if len(st.retains) > 0 {
			idxs := make([]int, 0, len(st.retains))
			for i := range st.retains {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			pass.ExportObjectFact(st.fn, &BufRetains{Params: idxs})
		}
	}

	// Reporting pass. Test variants are exempt: tests hold decoded frames in
	// assertions deliberately, and the frames they decode come from buffers
	// the test owns.
	if pass.TestVariant {
		return
	}
	for _, st := range order {
		env.analyzeFunc(st, env.report)
	}
}

// bufEnv carries the package-wide state the per-function walk consults.
type bufEnv struct {
	pass   *Pass
	states map[*types.Func]*bufFuncState
}

// originCallee reports whether a call's result aliases a frame buffer, via
// the in-package fixpoint state or an imported BufOrigin fact.
func (env *bufEnv) originCallee(call *ast.CallExpr) (bool, string) {
	fn := calleeAnyFunc(env.pass.Info, call)
	if fn == nil {
		return false, ""
	}
	if st, ok := env.states[fn]; ok {
		return st.origin, fn.Name()
	}
	var fact BufOrigin
	if env.pass.ImportObjectFact(fn, &fact) {
		return true, fn.Name()
	}
	return false, ""
}

// retainedParams returns the indices at which a callee retains its []byte
// arguments.
func (env *bufEnv) retainedParams(call *ast.CallExpr) map[int]bool {
	fn := calleeAnyFunc(env.pass.Info, call)
	if fn == nil {
		return nil
	}
	if st, ok := env.states[fn]; ok {
		return st.retains
	}
	var fact BufRetains
	if env.pass.ImportObjectFact(fn, &fact) {
		out := make(map[int]bool, len(fact.Params))
		for _, i := range fact.Params {
			out[i] = true
		}
		return out
	}
	return nil
}

// bufTaint is the abstract value the intra-function walk computes for an
// expression: whether it aliases a frame buffer (origin) and which of the
// enclosing function's parameters it may alias.
type bufTaint struct {
	origin bool
	why    string
	params map[int]bool
}

func (t *bufTaint) merge(o *bufTaint) bool {
	if o == nil {
		return false
	}
	changed := false
	if o.origin && !t.origin {
		t.origin, t.why = true, o.why
		changed = true
	}
	for i := range o.params {
		if !t.params[i] {
			if t.params == nil {
				t.params = make(map[int]bool)
			}
			t.params[i] = true
			changed = true
		}
	}
	return changed
}

// bufResult is what analyzeFunc feeds back into the fixpoint.
type bufResult struct {
	returnsOrigin bool
	returnsWhy    string
	retains       map[int]bool
}

// bufSink describes one retention site, for the reporting callback.
type bufSink struct {
	expr ast.Expr // the retained slice expression (nil for goroutine capture)
	node ast.Node // the retaining construct
	kind string
	why  string // origin provenance, for the message
}

// analyzeFunc computes the function's taint state. When report is non-nil it
// is invoked for every origin-tainted retention sink; retention of
// parameter-tainted values always feeds the result's retains set.
func (env *bufEnv) analyzeFunc(st *bufFuncState, report func(*bufSink)) bufResult {
	pass := env.pass
	taints := make(map[types.Object]*bufTaint)
	localStructs := make(map[types.Object]bool)

	// Seed: []byte parameters carry their own index.
	idx := 0
	if st.fd.Type.Params != nil {
		for _, field := range st.fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj != nil && isByteSlice(obj.Type()) {
					taints[obj] = &bufTaint{params: map[int]bool{idx: true}}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	exprTaint := func(e ast.Expr) *bufTaint { return env.exprTaint(taints, e) }

	// Collect local value-struct objects (a frame slice stored into a field
	// of a function-local struct value dies with the function — a
	// frame.Reader over the payload is the idiom) and run the monotone taint collection to a
	// fixpoint, so uses textually before assignments in loops still see the
	// taint.
	ast.Inspect(st.fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Defs[id]
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() {
			if _, isStruct := v.Type().Underlying().(*types.Struct); isStruct {
				localStructs[obj] = true
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		ast.Inspect(st.fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
					// payload, err := c.readFrame()
					call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
					if !ok {
						return true
					}
					isOrigin, why := env.originCallee(call)
					if !isOrigin {
						return true
					}
					for _, lhs := range s.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := identObj(pass, id)
						if obj == nil || !isByteSlice(obj.Type()) {
							continue
						}
						changed = taintObj(taints, obj, &bufTaint{origin: true, why: why}) || changed
					}
					return true
				}
				for i, lhs := range s.Lhs {
					if i >= len(s.Rhs) {
						break
					}
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					t := exprTaint(s.Rhs[i])
					if t == nil {
						continue
					}
					if obj := identObj(pass, id); obj != nil {
						changed = taintObj(taints, obj, t) || changed
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i >= len(s.Values) {
						break
					}
					t := exprTaint(s.Values[i])
					if t == nil {
						continue
					}
					if obj := pass.Info.Defs[name]; obj != nil {
						changed = taintObj(taints, obj, t) || changed
					}
				}
			}
			return true
		})
	}

	// Sink scan.
	res := bufResult{retains: make(map[int]bool)}
	sink := func(t *bufTaint, s *bufSink) {
		if t == nil {
			return
		}
		for i := range t.params {
			res.retains[i] = true
		}
		if t.origin && report != nil {
			s.why = t.why
			report(s)
		}
	}
	ast.Inspect(st.fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if obj := selectorBase(pass, l); obj != nil && localStructs[obj] {
						continue // field of a local struct value; dies here
					}
					sink(exprTaint(s.Rhs[i]), &bufSink{expr: s.Rhs[i], node: s, kind: "stored to a struct field"})
				case *ast.IndexExpr:
					sink(exprTaint(s.Rhs[i]), &bufSink{expr: s.Rhs[i], node: s, kind: "stored to a map or slice element"})
				}
			}
		case *ast.SendStmt:
			sink(exprTaint(s.Value), &bufSink{expr: s.Value, node: s, kind: "sent on a channel"})
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				sink(exprTaint(arg), &bufSink{expr: arg, node: s, kind: "passed to a spawned goroutine"})
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					if t := taints[pass.Info.Uses[id]]; t != nil {
						sink(t, &bufSink{node: s, kind: "captured by a spawned goroutine"})
						return false
					}
					return true
				})
			}
			return false // sinks inside the goroutine body are the capture, already handled
		case *ast.CallExpr:
			retained := env.retainedParams(s)
			if len(retained) == 0 {
				return true
			}
			fn := calleeAnyFunc(pass.Info, s)
			for i, arg := range s.Args {
				if retained[i] {
					sink(exprTaint(arg), &bufSink{expr: arg, node: s, kind: "passed to " + fn.Name() + ", which retains it"})
				}
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if t := exprTaint(r); t != nil && t.origin && !res.returnsOrigin {
					res.returnsOrigin = true
					res.returnsWhy = t.why
				}
			}
		}
		return true
	})
	return res
}

// exprTaint evaluates an expression against the current taint map. Slicing
// preserves aliasing; append onto a tainted slice may still alias it;
// append onto nil (or any untainted slice) and string conversions copy, so
// they launder the taint — that is the sanctioned fix.
func (env *bufEnv) exprTaint(taints map[types.Object]*bufTaint, e ast.Expr) *bufTaint {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return taints[env.pass.Info.Uses[e]]
	case *ast.SliceExpr:
		return env.exprTaint(taints, e.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := env.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				if id.Name == "append" && len(e.Args) > 0 {
					return env.exprTaint(taints, e.Args[0])
				}
				return nil
			}
		}
		if isOrigin, why := env.originCallee(e); isOrigin {
			return &bufTaint{origin: true, why: why}
		}
		return nil
	}
	return nil
}

// report turns one retention sink into a finding, with the mechanical
// copy-insertion fix when the retained expression is addressable as text.
func (env *bufEnv) report(s *bufSink) {
	pass := env.pass
	if s.expr == nil {
		pass.Reportf(s.node.Pos(),
			"frame-aliased []byte (from %s) %s and outlives the frame; copy it with append([]byte(nil), x...) first", s.why, s.kind)
		return
	}
	msg := "frame-aliased []byte (from %s) %s and outlives the frame; copy it first"
	src, ok := pass.SrcText(s.expr.Pos(), s.expr.End())
	if !ok {
		pass.Reportf(s.expr.Pos(), msg, s.why, s.kind)
		return
	}
	fix := &SuggestedFix{
		Message: "copy the frame buffer before it escapes",
		Edits:   []TextEdit{pass.Edit(s.expr.Pos(), s.expr.End(), "append([]byte(nil), "+src+"...)")},
	}
	pass.ReportWithFix(s.expr.Pos(), fix, msg, s.why, s.kind)
}

// framebufComment returns the //paralint:framebuf comment annotating fd: in
// its doc comment, or standalone on the line immediately above the
// declaration (above the doc comment, when there is one).
func framebufComment(pass *Pass, fd *ast.FuncDecl) *ast.Comment {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if isDirective(c.Text, framebufPrefix) {
				return c
			}
		}
	}
	declPos := pass.Fset.Position(fd.Pos())
	if fd.Doc != nil {
		declPos = pass.Fset.Position(fd.Doc.Pos())
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !isDirective(c.Text, framebufPrefix) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				if pos.Filename == declPos.Filename && pos.Line == declPos.Line-1 && standaloneComment(pass.ctx.pkg, pos) {
					return c
				}
			}
		}
	}
	return nil
}

// returnsByteSlice reports whether any result of fd is a []byte.
func returnsByteSlice(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		if t := pass.Info.TypeOf(field.Type); t != nil && isByteSlice(t) {
			return true
		}
	}
	return false
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// identObj resolves an identifier on the left of an assignment, whether it
// defines (`:=`) or uses (`=`) the variable.
func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// taintObj merges t into the taint entry for obj, reporting change.
func taintObj(taints map[types.Object]*bufTaint, obj types.Object, t *bufTaint) bool {
	cur := taints[obj]
	if cur == nil {
		cur = &bufTaint{}
		taints[obj] = cur
	}
	return cur.merge(t)
}

// selectorBase unwraps a selector chain (a.b.c) to its base identifier's
// object, or nil when the base is not a plain identifier.
func selectorBase(pass *Pass, sel *ast.SelectorExpr) types.Object {
	x := ast.Unparen(sel.X)
	for {
		inner, ok := x.(*ast.SelectorExpr)
		if !ok {
			break
		}
		x = ast.Unparen(inner.X)
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	return identObj(pass, id)
}
