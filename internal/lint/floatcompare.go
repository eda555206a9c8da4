package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FloatCompare flags ==/!= between floating-point operands in rank-ordering
// and stats packages. Comparisons against an exact zero (sentinel/unset
// checks) and NaN self-tests (x != x) are exempt. Test files are exempt
// wholesale: exact equality against a pinned constant is the golden-trace
// idiom, not a tie-handling bug.
//
// When the file can already reach stats.ApproxEqual, the finding carries a
// suggested fix rewriting `a == b` to `stats.ApproxEqual(a, b,
// stats.DefaultTol)` (negated for !=), applied by `paralint -fix`.
var FloatCompare = &Analyzer{
	Name: ruleFloatCompare,
	Doc:  "no ==/!= on floats in rank-ordering and stats code",
	Run:  runFloatCompare,
}

const statsPkgPath = "paratune/internal/stats"

func runFloatCompare(pass *Pass) {
	if pass.TestVariant {
		return // exact equality against pinned goldens is the test idiom
	}
	if !inScope(pass.Pkg.Path(), ruleFloatCompare) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info, bin.X) || !isFloat(pass.Info, bin.Y) {
				return true
			}
			if isExactZero(pass.Info, bin.X) || isExactZero(pass.Info, bin.Y) {
				return true // sentinel/unset check, not a rank decision
			}
			if isNaNSelfTest(pass.Info, bin) {
				return true
			}
			pass.ReportWithFix(bin.OpPos, approxEqualFix(pass, file, bin),
				"float equality (%s) in rank/stats code; compare through a tolerance helper such as stats.ApproxEqual",
				bin.Op)
			return true
		})
	}
}

// approxEqualFix builds the ApproxEqual rewrite when the enclosing file can
// name it: inside the stats package itself, or through an existing stats
// import (the fixer does not add imports).
func approxEqualFix(pass *Pass, file *ast.File, bin *ast.BinaryExpr) *SuggestedFix {
	var qual string
	switch {
	case pass.Pkg.Path() == statsPkgPath:
		qual = ""
	default:
		name, ok := importName(file, statsPkgPath)
		if !ok {
			return nil
		}
		qual = name + "."
	}
	x, okX := pass.SrcText(bin.X.Pos(), bin.X.End())
	y, okY := pass.SrcText(bin.Y.Pos(), bin.Y.End())
	if !okX || !okY {
		return nil
	}
	repl := qual + "ApproxEqual(" + x + ", " + y + ", " + qual + "DefaultTol)"
	if bin.Op == token.NEQ {
		repl = "!" + repl
	}
	return &SuggestedFix{
		Message: "compare through " + qual + "ApproxEqual",
		Edits:   []TextEdit{pass.Edit(bin.Pos(), bin.End(), repl)},
	}
}

// importName returns the local name under which file imports path.
func importName(file *ast.File, path string) (string, bool) {
	for _, spec := range file.Imports {
		if strings.Trim(spec.Path.Value, `"`) != path {
			continue
		}
		if spec.Name != nil {
			if spec.Name.Name == "_" || spec.Name.Name == "." {
				return "", false
			}
			return spec.Name.Name, true
		}
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		return base, true
	}
	return "", false
}

func isFloat(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isExactZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Value == nil {
		return false
	}
	v, ok := constant.Float64Val(tv.Value)
	return ok && v == 0
}

// isNaNSelfTest matches x != x / x == x on the same variable — the idiomatic
// NaN probe, which is exact by definition.
func isNaNSelfTest(info *types.Info, bin *ast.BinaryExpr) bool {
	x, ok1 := ast.Unparen(bin.X).(*ast.Ident)
	y, ok2 := ast.Unparen(bin.Y).(*ast.Ident)
	return ok1 && ok2 && info.Uses[x] != nil && info.Uses[x] == info.Uses[y]
}
