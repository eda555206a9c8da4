package lint

import (
	"go/ast"
	"go/types"
)

// errDisciplineExempt names best-effort cleanup calls whose errors carry no
// recovery information at the call site.
var errDisciplineExempt = map[string]bool{
	"Close":            true,
	"Stop":             true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// ErrDiscipline flags discarded errors at the wire boundary: an
// error-returning call used as a bare statement, deferred, or assigned to
// the blank identifier. Best-effort cleanup (Close, Stop, deadline setters)
// is exempt; anything else that genuinely wants to drop an error documents
// it with //paralint:allow errdiscipline.
var ErrDiscipline = &Analyzer{
	Name: ruleErrDiscipline,
	Doc:  "no discarded errors at the harmony wire boundary",
	Run:  runErrDiscipline,
}

func runErrDiscipline(pass *Pass) {
	if !inScope(pass.Pkg.Path(), ruleErrDiscipline) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				reportDroppedCall(pass, n.X)
			case *ast.DeferStmt:
				reportDroppedCall(pass, n.Call)
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, n)
			}
			return true
		})
	}
}

// reportDroppedCall flags expr when it is a non-exempt call whose error
// result is dropped on the floor.
func reportDroppedCall(pass *Pass, expr ast.Expr) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || !returnsError(pass.Info, call) || isExemptCall(call) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s discarded at the wire boundary; handle it or annotate //paralint:allow errdiscipline",
		calleeName(call))
}

// checkBlankErrAssign flags `_ = f()` and `a, _ := f()` where the discarded
// result is the call's error.
func checkBlankErrAssign(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || !returnsError(pass.Info, call) || isExemptCall(call) {
		return
	}
	last, ok := ast.Unparen(assign.Lhs[len(assign.Lhs)-1]).(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s assigned to _ at the wire boundary; handle it or annotate //paralint:allow errdiscipline",
		calleeName(call))
}

// returnsError reports whether the call's only or last result is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.Types[call].Type
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isExemptCall(call *ast.CallExpr) bool {
	return errDisciplineExempt[calleeName(call)]
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
