package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// SeedSink is the cross-package fact seedflow exports on a function whose
// listed parameters flow into an RNG-constructor seed argument (directly or
// through further SeedSink calls). dist.NewRNG carries {Params: [0]};
// cluster.New carries {Params: [2]} because its seed parameter reaches
// dist.NewRNG. Consumers treat a call to a SeedSink function exactly like a
// call to rand.NewSource: the sink arguments must have deterministic
// provenance.
type SeedSink struct {
	Params []int
}

// AFact marks SeedSink as a fact.
func (*SeedSink) AFact() {}

func (s *SeedSink) String() string { return fmt.Sprintf("SeedSink%v", s.Params) }

// SeedFlow traces the provenance of every RNG seed in simulation packages:
// each argument that flows into a rand.Source/rand.New (or any function a
// SeedSink fact marks as forwarding to one) must originate from parameters,
// struct fields, constants, or other seeded streams — never from the wall
// clock, crypto/rand, or the process id. The walk follows local assignments
// inside the function and call boundaries across packages via facts, which
// is exactly the two-step nondeterminism (seed := time.Now().UnixNano();
// rng := dist.NewRNG(seed)) the syntax-local determinism rule cannot see.
var SeedFlow = &Analyzer{
	Name:      ruleSeedFlow,
	Doc:       "RNG seeds in simulation packages must trace to deterministic origins",
	FactTypes: []Fact{(*SeedSink)(nil)},
	Run:       runSeedFlow,
}

// seedSinkArgs returns the argument indices of call that are RNG seeds, or
// nil when the callee is not an RNG constructor or SeedSink function.
func seedSinkArgs(pass *Pass, call *ast.CallExpr) []int {
	fn := calleeAnyFunc(pass.Info, call)
	if fn == nil {
		return nil
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") {
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8":
			idx := make([]int, len(call.Args))
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		return nil
	}
	var sink SeedSink
	if pass.ImportObjectFact(fn, &sink) || pass.localSeedSink(fn, &sink) {
		var idx []int
		for _, i := range sink.Params {
			if i < len(call.Args) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	return nil
}

// localSeedSink resolves a SeedSink computed for a function of the package
// currently under analysis (facts become importable only after the whole
// package finishes, but intra-package calls need them mid-run).
func (p *Pass) localSeedSink(fn *types.Func, sink *SeedSink) bool {
	if p.seedSinks == nil {
		return false
	}
	s, ok := p.seedSinks[fn]
	if ok {
		*sink = *s
	}
	return ok
}

func runSeedFlow(pass *Pass) {
	// Phase 1: compute SeedSink facts for this package's functions, to a
	// fixpoint so chains inside one package (New -> newRNGs -> rand.New)
	// propagate regardless of declaration order. Facts are computed for
	// every module package, not just simulation ones: a seed parameter
	// threaded through a helper in any package keeps its meaning.
	pass.seedSinks = make(map[*types.Func]*SeedSink)
	for changed := true; changed; {
		changed = false
		for _, d := range pass.ctx.funcs {
			params := seedSinkParams(pass, d.decl, d.fn)
			if len(params) == 0 {
				continue
			}
			prev := pass.seedSinks[d.fn]
			if prev == nil || len(prev.Params) != len(params) {
				pass.seedSinks[d.fn] = &SeedSink{Params: params}
				changed = true
			}
		}
	}
	for fn, sink := range pass.seedSinks {
		pass.ExportObjectFact(fn, sink)
	}

	// Phase 2: in simulation packages, check the provenance of every seed
	// argument at every sink call.
	if !inScope(pass.Pkg.Path(), ruleSeedFlow) {
		return
	}
	for _, file := range pass.Files {
		var fnStack []*ast.FuncDecl
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fnStack = append(fnStack, n)
			case nil:
				return true
			case *ast.CallExpr:
				idx := seedSinkArgs(pass, n)
				if idx == nil {
					return true
				}
				var enclosing *ast.FuncDecl
				for _, fd := range fnStack {
					if fd.Body != nil && n.Pos() >= fd.Body.Pos() && n.End() <= fd.Body.End() {
						enclosing = fd
					}
				}
				for _, i := range idx {
					w := &seedWalker{pass: pass, enclosing: enclosing, seen: make(map[types.Object]bool)}
					if origin := w.trace(n.Args[i]); origin != nil {
						pass.Reportf(origin.pos.Pos(),
							"RNG seed derives from %s; thread a Config/Options seed instead so the run replays",
							origin.what)
					}
				}
			}
			return true
		})
	}
}

// seedSinkParams returns the (sorted) indices of fd's parameters that reach
// a seed-sink argument somewhere in its body.
func seedSinkParams(pass *Pass, fd *ast.FuncDecl, fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return nil
	}
	paramIdx := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	found := make(map[int]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		idx := seedSinkArgs(pass, call)
		for _, i := range idx {
			// A parameter reaches the sink if it appears anywhere in the
			// seed argument expression (conservative but precise enough for
			// pass-through helpers, which is what the fact models).
			ast.Inspect(call.Args[i], func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := pass.Info.Uses[id]; obj != nil {
					if pi, isParam := paramIdx[obj]; isParam {
						found[pi] = true
					}
				}
				return true
			})
		}
		return true
	})
	if len(found) == 0 {
		return nil
	}
	out := make([]int, 0, len(found))
	for i := range found {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// badOrigin describes a nondeterministic seed source.
type badOrigin struct {
	pos  ast.Node
	what string
}

func (b *badOrigin) Error() string { return b.what }

// seedWalker traces one seed expression back to its origins.
type seedWalker struct {
	pass      *Pass
	enclosing *ast.FuncDecl
	seen      map[types.Object]bool
}

// trace returns the first nondeterministic origin in expr's provenance, or
// nil when every origin is deterministic. Unknown origins (fields, package
// vars, calls into unanalyzed code) are trusted: the rule exists to catch
// provably bad flows without drowning the build in maybes.
func (w *seedWalker) trace(expr ast.Expr) *badOrigin {
	var bad *badOrigin
	ast.Inspect(expr, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if o := w.classifyCall(n); o != nil {
				bad = o
				return false
			}
		case *ast.Ident:
			if o := w.traceIdent(n); o != nil {
				bad = o
				return false
			}
		}
		return true
	})
	return bad
}

// classifyCall flags calls whose results are inherently nondeterministic.
func (w *seedWalker) classifyCall(call *ast.CallExpr) *badOrigin {
	fn := calleeAnyFunc(w.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch fn.Pkg().Path() {
	case "time":
		if isWallClockFunc(fn.Name()) {
			return &badOrigin{pos: call, what: "the wall clock (time." + fn.Name() + ")"}
		}
	case "crypto/rand":
		return &badOrigin{pos: call, what: "crypto/rand (irreproducible entropy)"}
	case "os":
		if fn.Name() == "Getpid" || fn.Name() == "Getppid" {
			return &badOrigin{pos: call, what: "the process id (os." + fn.Name() + ")"}
		}
	}
	return nil
}

// traceIdent follows a local variable back through the assignments in the
// enclosing function.
func (w *seedWalker) traceIdent(id *ast.Ident) *badOrigin {
	obj := w.pass.Info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || w.seen[v] || w.enclosing == nil {
		return nil
	}
	if v.IsField() || v.Parent() == nil {
		return nil // struct fields are construction-time state: trusted
	}
	w.seen[v] = true
	var bad *badOrigin
	ast.Inspect(w.enclosing.Body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			lobj := w.pass.Info.Defs[lid]
			if lobj == nil {
				lobj = w.pass.Info.Uses[lid]
			}
			if lobj != v {
				continue
			}
			if i < len(assign.Rhs) {
				bad = w.trace(assign.Rhs[i])
			} else if len(assign.Rhs) == 1 {
				bad = w.trace(assign.Rhs[0])
			}
		}
		return true
	})
	return bad
}
