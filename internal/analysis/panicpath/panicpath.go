// Package panicpath polices where panic is allowed. Inside the
// simulated machine (internal/cpu, strategy, power, isa, emul) a panic
// marks a violated invariant — state that no input should be able to
// reach — and crashing is correct. Everywhere user input, files or
// flags flow (cmd/*, the experiment engine, trace/workload codecs,
// report writers, the daemon and its workers) a bad input is an
// expected condition and must surface as an error the caller can handle.
package panicpath

import (
	"go/ast"
	"go/types"
	"strings"

	"suit/internal/analysis"
)

// errorPackages must return errors instead of panicking: they sit on
// I/O and user-input paths.
var errorPackages = []string{
	"internal/engine",
	"internal/trace",
	"internal/workload",
	"internal/report",
	"internal/dist",
	"internal/service",
}

// Analyzer flags panic calls in cmd/ and I/O-adjacent packages.
var Analyzer = &analysis.Analyzer{
	Name: "panicpath",
	Doc: "panic is reserved for machine invariants (internal/cpu, strategy, power, isa, emul); " +
		"cmd/, internal/engine and I/O-adjacent packages (" + strings.Join(errorPackages, ", ") +
		") must return errors",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), errorPackages) && !isCmd(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				pass.Reportf(call.Pos(),
					"panic on an I/O or user-input path; return an error (panic is reserved for machine invariants in internal/{cpu,strategy,power,isa,emul})")
			}
			return true
		})
	}
	return nil
}

// isCmd reports whether the import path is under the module's cmd/ tree.
func isCmd(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}
