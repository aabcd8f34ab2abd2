// Package hotpath guards the simulator's per-event cost model. The
// simulator charges energy once per epoch — a stretch over which a
// domain's power coefficient and voltage trajectory stay fixed — so the
// math.Pow of the ramp closed form runs when an epoch closes, not on
// every arrival. Any new math.Pow in internal/cpu may land on a path
// that executes once per event and bring back the per-arrival cost the
// epochs removed (tens of nanoseconds per call; the per-segment
// integrator it replaced was ~40% of a cold sweep's profile), so each
// call site must carry an explained //lint:allow hotpath <reason>
// stating why it is off the per-arrival path.
package hotpath

import (
	"go/ast"
	"go/types"

	"suit/internal/analysis"
)

// hotPackages are the packages whose functions run per simulated event.
var hotPackages = []string{"internal/cpu"}

// Analyzer flags math.Pow calls in the simulator hot path.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flag math.Pow in internal/cpu's per-event code; every call needs " +
		"//lint:allow hotpath <reason> explaining why it runs once per epoch " +
		"or off the steady state rather than once per arrival",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), hotPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" || fn.Name() != "Pow" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"math.Pow on a per-event path; charge it when an energy epoch "+
					"closes (closeEpoch) rather than per arrival, or explain with "+
					"//lint:allow hotpath <reason> why this site is off the steady state")
			return true
		})
	}
	return nil
}
