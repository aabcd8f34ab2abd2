// Package hotpath guards the simulator's per-event cost model. The
// constant-voltage fast path in internal/cpu exists so that math.Pow —
// tens of nanoseconds per call, ~60% of a cold sweep's profile before
// the cache landed — runs only while a voltage ramp is actually in
// flight. Any new math.Pow in internal/cpu reintroduces that cost on a
// path that may execute once per event, so each call site must carry an
// explained //lint:allow hotpath <reason> stating why it is off the
// steady-state path (or why it cannot be cached).
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
	Doc: "flag math.Pow in internal/cpu's per-event code; the sanctioned pow-kernel " +
		"helpers (powKernel, newPowKernel) replicate math.Pow bit-for-bit and may " +
		"call it freely — every other call needs //lint:allow hotpath <reason>",
	Run: run,
}

// sanctioned reports whether fd is one of the pow-kernel helpers that
// exist precisely to wrap math.Pow: methods on powKernel (the
// exponent-specialized kernel, whose math.Pow calls are the deliberate,
// bit-identical fallback ladder) and the kernel constructor. Calls
// inside them are the replacement for per-event math.Pow, not a
// reintroduction of it.
func sanctioned(fd *ast.FuncDecl) bool {
	if fd.Name.Name == "newPowKernel" {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "powKernel"
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), hotPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && sanctioned(fd) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" || fn.Name() != "Pow" {
					return true
				}
				pass.Reportf(sel.Pos(),
					"math.Pow on a per-event path; route it through the "+
						"exponent-specialized kernel (powKernel.eval), keep it behind the "+
						"settled-ramp voltage cache (refreshVoltCache), or explain with "+
						"//lint:allow hotpath <reason> why this site is off the steady state")
				return true
			})
		}
	}
	return nil
}
