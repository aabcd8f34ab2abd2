// Package exhaustive enforces that switches over the simulator's
// enum-like types handle every declared constant. The SUIT model grows
// by adding strategy kinds, event kinds and DVFS domains; a switch that
// silently falls through for a new constant mis-simulates instead of
// failing loudly, so each listed enum must either be covered completely
// or carry an explicit default that panics.
package exhaustive

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"suit/internal/analysis"
)

// enums lists the guarded types as (package-path suffix, type name).
// Unexported types (cpu.evKind) can only be switched on inside their
// own package, which is exactly where the analyzer sees them.
var enums = []struct{ pkg, name string }{
	{"internal/dvfs", "DomainKind"},
	{"internal/isa", "FUKind"},
	{"internal/cpu", "evKind"},
	{"internal/core", "StrategyKind"},
}

// Analyzer flags non-exhaustive switches over the listed enum types.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: "switches on dvfs.DomainKind, isa.FUKind, cpu.evKind and " +
		"core.StrategyKind must cover every declared constant or panic in an explicit default",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := guardedEnum(pass, sw.Tag)
			if named == nil {
				return true
			}
			checkSwitch(pass, sw, named)
			return true
		})
	}
	return nil
}

// guardedEnum returns the named type of tag if it is one of the guarded
// enums, else nil.
func guardedEnum(pass *analysis.Pass, tag ast.Expr) *types.Named {
	tv, ok := pass.TypesInfo.Types[tag]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	for _, e := range enums {
		if named.Obj().Name() == e.name &&
			analysis.PkgPathMatches(named.Obj().Pkg().Path(), []string{e.pkg}) {
			return named
		}
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt, named *types.Named) {
	members := enumMembers(named)
	if len(members) == 0 {
		return
	}
	covered := make(map[string]bool, len(members))
	hasPanickingDefault := false
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil { // default:
			if bodyPanics(pass, cc.Body) {
				hasPanickingDefault = true
			}
			continue
		}
		for _, e := range cc.List {
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil {
				continue // non-constant case; cannot prove coverage
			}
			for _, m := range members {
				if constant.Compare(m.Val(), token.EQL, tv.Value) {
					covered[m.Name()] = true
				}
			}
		}
	}
	if hasPanickingDefault {
		return
	}
	var missing []string
	for _, m := range members {
		if !covered[m.Name()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	typeName := named.Obj().Name()
	if pkg := named.Obj().Pkg(); pkg != nil && pkg != pass.Pkg {
		typeName = pkg.Name() + "." + typeName
	}
	pass.Reportf(sw.Pos(),
		"switch on %s is missing cases %s; cover every constant or add a panicking default",
		typeName, strings.Join(missing, ", "))
}

// enumMembers returns the package-level constants declared with exactly
// the named type, in declaration order.
func enumMembers(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var members []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) {
			members = append(members, c)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Pos() < members[j].Pos() })
	return members
}

// bodyPanics reports whether the statement list contains a call to the
// panic builtin (directly or nested, e.g. inside a fmt.Sprintf arg).
func bodyPanics(pass *analysis.Pass, body []ast.Stmt) bool {
	found := false
	for _, st := range body {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					found = true
				}
			}
			return !found
		})
		if found {
			break
		}
	}
	return found
}
