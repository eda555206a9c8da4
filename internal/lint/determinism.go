package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism flags nondeterminism sources that break seeded reproduction:
// wall-clock reads (time.Now/Since/Until) inside simulation packages,
// process-global math/rand calls anywhere, and RNG sources seeded from the
// wall clock anywhere. Genuinely wall-clock code (TCP deadlines, progress
// logging) lives outside the simulation packages or carries a
// //paralint:allow determinism annotation.
var Determinism = &Analyzer{
	Name: ruleDeterminism,
	Doc:  "flag wall-clock time and unseeded randomness in seed-pure code",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	sim := inScope(pass.Pkg.Path(), ruleDeterminism)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if sim && isWallClockFunc(fn.Name()) {
					pass.Reportf(call.Pos(),
						"wall-clock time.%s in simulation package %s; inject a clock or thread a seed",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if strings.HasPrefix(fn.Name(), "New") {
					// Constructors are the seeded idiom — unless the seed
					// itself comes from the wall clock. Inside simulation
					// packages the wall-clock read is already reported above.
					if !sim {
						if clock := findWallClockCall(pass.Info, call); clock != nil {
							pass.Reportf(clock.Pos(),
								"RNG seeded from the wall clock; accept a seed or rand.Source so behaviour is reproducible")
						}
					}
				} else {
					pass.Reportf(call.Pos(),
						"global math/rand %s draws from the shared process-wide source; use a seeded *rand.Rand",
						fn.Name())
				}
			}
			return true
		})
	}
}

func isWallClockFunc(name string) bool {
	return name == "Now" || name == "Since" || name == "Until"
}

// findWallClockCall returns the first time.Now/Since/Until call in the
// argument subtree of call, or nil.
func findWallClockCall(info *types.Info, call *ast.CallExpr) ast.Node {
	var found ast.Node
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, inner)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && isWallClockFunc(fn.Name()) {
				found = inner
				return false
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found
}

// calleeFunc resolves the package-level function a call dispatches to, or
// nil for methods, builtins, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
