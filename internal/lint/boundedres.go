package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// GrowthSites records that calling a function grows per-request state with
// no declared bound: appends to fields, map inserts, or sends on
// dynamically-buffered channels, directly or through its callees. A scoped
// package calling such a function from a connection handler inherits the
// obligation to bound it.
type GrowthSites struct {
	// Sites describes up to maxGrowthSiteList sites as "<what> (<file>:<line>)".
	Sites []string
}

// AFact marks GrowthSites as a paralint fact.
func (*GrowthSites) AFact() {}

// BoundedRes enforces the bounded-resource contract (DESIGN.md "Bounded
// resources"): state that grows per request — reachable from a connection
// handler — must declare its bound with a //paralint:bounded <limit-expr>
// directive, and the enclosing function must actually compare against that
// limit. This generalizes the MaxPendingReports pattern: a malicious or
// misbehaving client must not be able to grow server memory without hitting
// an enforced ceiling.
var BoundedRes = &Analyzer{
	Name:      ruleBoundedRes,
	Doc:       "per-request growth sites (field appends, map inserts, dynamic channel sends) reachable from a conn handler must declare //paralint:bounded <limit-expr> backed by an enforced check",
	FactTypes: []Fact{(*GrowthSites)(nil)},
	Run:       runBoundedRes,
}

const (
	boundedPrefix     = "paralint:bounded"
	maxGrowthSiteList = 8
)

// boundedDecl is one parsed //paralint:bounded directive.
type boundedDecl struct {
	expr      string
	comment   *ast.Comment
	malformed bool
	bound     bool
}

// growthSite is one per-request growth site inside a function.
type growthSite struct {
	pos  token.Pos
	desc string
	decl *boundedDecl // nil when undeclared
}

func runBoundedRes(pass *Pass) {
	decls := parseBoundedDecls(pass)

	states := make(map[*types.Func]*boundedFnState)
	var order []*boundedFnState
	declsByFunc := make(map[*boundedFnState][]growthSite)
	for _, d := range pass.ctx.funcs {
		st := &boundedFnState{fd: d.decl, fn: d.fn, sites: make(map[string]bool)}
		for _, site := range collectGrowthSites(pass, d.decl, decls) {
			if site.decl != nil {
				site.decl.bound = true
				declsByFunc[st] = append(declsByFunc[st], site)
				continue
			}
			st.own = append(st.own, site)
			pos := pass.Fset.Position(site.pos)
			st.sites[site.desc+" ("+filepath.Base(pos.Filename)+":"+itoa(pos.Line)+")"] = true
		}
		states[d.fn] = st
		order = append(order, st)
	}

	// Directive hygiene: malformed expressions and directives that bind no
	// growth site are config rot, reported in every package.
	for _, byLine := range decls {
		for _, d := range byLine {
			switch {
			case d.malformed:
				pass.ReportDirective(d.comment.Pos(),
					"malformed //paralint:bounded directive: want //paralint:bounded <limit-expr>")
			case !d.bound:
				pass.ReportDirective(d.comment.Pos(),
					"//paralint:bounded directive does not annotate a growth site (field append, map insert, or channel send)")
			}
		}
	}

	// A declared bound is a contract only if the enclosing function compares
	// against it (directly or through a local alias of the limit).
	for _, st := range order {
		for _, site := range declsByFunc[st] {
			if !boundEnforced(pass, st.fd, site.decl.expr) {
				pass.Reportf(site.pos,
					"growth site declares bound %q but no comparison in %s enforces it",
					site.decl.expr, st.fd.Name.Name)
			}
		}
	}

	// Transitive fixpoint: a function carries its own undeclared sites plus
	// those of every synchronous callee, in or out of package. Spawned
	// goroutines are excluded throughout — they are not the request path.
	calleeSites := func(call *ast.CallExpr) map[string]bool {
		fn := calleeAnyFunc(pass.Info, call)
		if fn == nil {
			return nil
		}
		if st, ok := states[fn]; ok {
			return st.sites
		}
		var fact GrowthSites
		if pass.ImportObjectFact(fn, &fact) {
			out := make(map[string]bool, len(fact.Sites))
			for _, s := range fact.Sites {
				out[s] = true
			}
			return out
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, st := range order {
			inspectSkippingGo(st.fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				for s := range calleeSites(call) {
					if !st.sites[s] && len(st.sites) < maxGrowthSiteList {
						st.sites[s] = true
						changed = true
					}
				}
			})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].fn.FullName() < order[j].fn.FullName() })
	for _, st := range order {
		if len(st.sites) == 0 {
			continue
		}
		sites := make([]string, 0, len(st.sites))
		for s := range st.sites {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		pass.ExportObjectFact(st.fn, &GrowthSites{Sites: sites})
	}

	// Reporting: in scoped packages, every function reachable from a
	// connection handler must have no undeclared growth site, and every
	// cross-package call from that path must target growth-free functions.
	if pass.TestVariant || !inScope(pass.Pkg.Path(), ruleBoundedRes) {
		return
	}
	reachable := reachableFromConnHandlers(pass, states)
	for _, st := range order {
		if !reachable[st.fn] {
			continue
		}
		for _, site := range st.own {
			pass.Reportf(site.pos,
				"%s grows per-request state reachable from a connection handler with no declared bound; add //paralint:bounded <limit-expr> backed by an enforced check",
				site.desc)
		}
		inspectSkippingGo(st.fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := calleeAnyFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
				return // in-package callees are reported at their own sites
			}
			var fact GrowthSites
			if pass.ImportObjectFact(fn, &fact) && len(fact.Sites) > 0 {
				pass.Reportf(call.Lparen,
					"call to %s grows unbounded per-request state (%s); bound the growth at its site or annotate this call with //paralint:allow boundedres and a reason",
					fn.FullName(), fact.Sites[0])
			}
		})
	}
}

// boundedFnState is the per-function analysis state: the declaration, its
// undeclared growth sites, and the transitive site descriptions the
// fixpoint accumulates.
type boundedFnState struct {
	fd    *ast.FuncDecl
	fn    *types.Func
	own   []growthSite // undeclared sites, reported when reachable
	sites map[string]bool
}

// reachableFromConnHandlers computes the synchronous call closure of every
// function with a net.Conn parameter, expanding in-package interface-method
// calls (the codec negotiation) to every concrete implementation, and
// skipping spawned goroutines.
func reachableFromConnHandlers(pass *Pass, states map[*types.Func]*boundedFnState) map[*types.Func]bool {
	reachable := make(map[*types.Func]bool)
	var work []*types.Func
	push := func(fn *types.Func) {
		if fn != nil && !reachable[fn] && states[fn] != nil {
			reachable[fn] = true
			work = append(work, fn)
		}
	}
	for fn, st := range states {
		if hasNetConnParam(st.fd, pass) {
			push(fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		inspectSkippingGo(states[fn].fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeAnyFunc(pass.Info, call)
			if callee == nil {
				return
			}
			push(callee)
			for _, impl := range concreteMethods(pass, callee) {
				push(impl)
			}
		})
	}
	return reachable
}

// hasNetConnParam reports whether fd takes a net.Conn parameter — the
// signature shape of a connection handler.
func hasNetConnParam(fd *ast.FuncDecl, pass *Pass) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if named.Obj().Pkg().Path() == "net" && named.Obj().Name() == "Conn" {
			return true
		}
	}
	return false
}

// concreteMethods expands a call through an interface method to every
// in-package concrete implementation, so the closure traverses
// `codec.readRequest(...)` into both wire codecs.
func concreteMethods(pass *Pass, fn *types.Func) []*types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		var recv types.Type
		switch {
		case types.Implements(t, iface):
			recv = t
		case types.Implements(types.NewPointer(t), iface):
			recv = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, fn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// itoa is strconv.Itoa without the import weight elsewhere in the message
// path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// parseBoundedDecls indexes every //paralint:bounded comment by the source
// line it covers (its own line for a trailing comment, the next line for a
// standalone one).
func parseBoundedDecls(pass *Pass) map[string]map[int]*boundedDecl {
	out := make(map[string]map[int]*boundedDecl)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !isDirective(c.Text, boundedPrefix) {
					continue
				}
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				expr := strings.TrimSpace(strings.TrimPrefix(text, boundedPrefix))
				// A Go limit expression never contains "//"; anything from
				// there on is commentary, not the limit.
				if i := strings.Index(expr, "//"); i >= 0 {
					expr = strings.TrimSpace(expr[:i])
				}
				d := &boundedDecl{expr: expr, comment: c, malformed: expr == ""}
				pos := pass.Fset.Position(c.Pos())
				line := pos.Line
				if standaloneComment(pass.ctx.pkg, pos) {
					line++
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*boundedDecl)
					out[pos.Filename] = byLine
				}
				byLine[line] = d
			}
		}
	}
	return out
}

// collectGrowthSites finds the per-request growth sites in one function:
// appends whose destination is a field path, map inserts, and sends on
// channels some make site buffers with a non-constant capacity (an
// unbuffered or constant-capacity channel's ceiling is fixed at compile
// time, or by the blocked sender itself). Local-slice appends and the
// append(x[:0], ...) scratch-reuse idiom are exempt; go statement bodies are
// skipped (not the request path).
func collectGrowthSites(pass *Pass, fd *ast.FuncDecl, decls map[string]map[int]*boundedDecl) []growthSite {
	var sites []growthSite
	add := func(pos token.Pos, desc string) {
		p := pass.Fset.Position(pos)
		site := growthSite{pos: pos, desc: desc}
		if byLine := decls[p.Filename]; byLine != nil {
			site.decl = byLine[p.Line]
		}
		sites = append(sites, site)
	}
	inspectSkippingGo(fd.Body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.CallExpr:
			if !isBuiltinAppend(pass, s) {
				return
			}
			dest, scratch := appendDest(s.Args[0])
			if scratch || dest == nil {
				return
			}
			if text, ok := pass.SrcText(dest.Pos(), dest.End()); ok {
				add(s.Pos(), "append to "+text)
			} else {
				add(s.Pos(), "append to a field")
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				ie, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				t := pass.Info.TypeOf(ie.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				if text, ok := pass.SrcText(ie.X.Pos(), ie.X.End()); ok {
					add(lhs.Pos(), "map insert into "+text)
				} else {
					add(lhs.Pos(), "map insert")
				}
			}
		case *ast.SendStmt:
			t := pass.Info.TypeOf(s.Chan)
			if t == nil || !pass.ctx.chans[t.String()].dynamic {
				return
			}
			if text, ok := pass.SrcText(s.Chan.Pos(), s.Chan.End()); ok {
				add(s.Arrow, "send on dynamically-buffered channel "+text)
			} else {
				add(s.Arrow, "send on a dynamically-buffered channel")
			}
		}
	})
	return sites
}

// appendDest classifies the destination of an append: a field-path
// expression means per-request growth; a plain local identifier or the
// [:0] scratch-reuse idiom is exempt.
func appendDest(arg ast.Expr) (dest ast.Expr, scratch bool) {
	e := ast.Unparen(arg)
	for {
		se, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		if se.Low == nil && se.High != nil {
			if lit, ok := ast.Unparen(se.High).(*ast.BasicLit); ok && lit.Value == "0" {
				return nil, true // append(x[:0], ...) reuses x's storage
			}
		}
		e = ast.Unparen(se.X)
	}
	switch e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return e, false
	}
	return nil, false
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// boundEnforced reports whether fd contains a comparison against the
// declared limit expression — any comparison operator whose operands
// mention an identifier from the limit expression, or a local variable
// assigned from one (the `limit := s.opts.MaxPendingReports` idiom).
func boundEnforced(pass *Pass, fd *ast.FuncDecl, limitExpr string) bool {
	tokens := make(map[string]bool)
	for _, t := range identTokens(limitExpr) {
		tokens[t] = true
	}
	if len(tokens) == 0 {
		return false
	}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && tokens[id.Name] {
				found = true
			}
			return !found
		})
		return found
	}
	// Two alias rounds cover limit := s.opts.X and a rename of that alias.
	for round := 0; round < 2; round++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range a.Lhs {
				if i >= len(a.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if ok && mentions(a.Rhs[i]) {
					tokens[id.Name] = true
				}
			}
			return true
		})
	}
	enforced := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if enforced {
			return false
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL:
			if mentions(b.X) || mentions(b.Y) {
				enforced = true
			}
		}
		return true
	})
	return enforced
}

// identTokens extracts the Go identifiers from a limit expression string.
// Qualifier segments of a dotted path are dropped — for
// "s.opts.MaxPendingReports" only "MaxPendingReports" is a token, so the
// receiver name cannot make the enforcement check trivially true.
func identTokens(s string) []string {
	var out []string
	start := -1
	isIdent := func(c byte) bool {
		return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isIdent(s[i]) {
			if start == -1 {
				start = i
			}
			continue
		}
		if start >= 0 {
			tok := s[start:i]
			qualifier := i < len(s) && s[i] == '.'
			if !qualifier && (tok[0] < '0' || tok[0] > '9') {
				out = append(out, tok)
			}
			start = -1
		}
	}
	return out
}
