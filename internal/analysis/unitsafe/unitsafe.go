// Package unitsafe guards the internal/units quantity types (Volt,
// Hertz, Watt, Joule, Second, Celsius). Two mistakes defeat them:
// passing a raw numeric literal where a unit type is expected (the
// untyped constant converts silently, so "SetVdd(0.85)" and
// "SetVdd(850)" both compile, one of them 1000x wrong) and laundering
// one unit into another through a bare conversion
// ("units.Second(f)" with f a Hertz). Both are flagged; call sites are
// steered to the units constructors (units.MilliVolts, units.MHz,
// units.Microseconds, ...) and combinators (units.Energy, units.Power,
// units.TimeFor).
package unitsafe

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/types"

	"suit/internal/analysis"
)

// unitsPkg is the path suffix of the package defining quantity types.
const unitsPkg = "internal/units"

// Analyzer flags raw literals passed into unit-typed parameters/fields
// and bare cross-unit conversions.
var Analyzer = &analysis.Analyzer{
	Name: "units",
	Doc: "numeric literals must not flow into internal/units quantity types without a " +
		"constructor, and distinct unit types must not be mixed through bare conversions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The units package itself defines the constructors and
	// combinators; raw float math is its job.
	if analysis.PkgPathMatches(pass.Pkg.Path(), []string{unitsPkg}) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, e)
			case *ast.CompositeLit:
				checkCompositeLit(pass, e)
			}
			return true
		})
	}
	return nil
}

// unitType returns the named internal/units type of t, or nil.
func unitType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if !analysis.PkgPathMatches(named.Obj().Pkg().Path(), []string{unitsPkg}) {
		return nil
	}
	if _, ok := named.Underlying().(*types.Basic); !ok {
		return nil
	}
	return named
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() {
		checkConversion(pass, call, tv.Type)
		return
	}
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		u := unitType(pt)
		if u == nil {
			continue
		}
		if lit, ok := rawNonzeroLiteral(pass, arg); ok {
			pass.Reportf(arg.Pos(),
				"raw literal %s passed as %s; construct the quantity explicitly (units.MilliVolts, units.MHz, units.Microseconds, units.%s(...))",
				lit, u.Obj().Name(), u.Obj().Name())
		}
	}
}

// checkConversion flags U(expr) when expr is, or visibly contains, a
// value of a different unit type V: converting microseconds into
// megahertz should go through units.TimeFor, not a cast.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, target types.Type) {
	u := unitType(target)
	if u == nil || len(call.Args) != 1 {
		return
	}
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[e]
		if !ok {
			return true
		}
		v := unitType(tv.Type)
		if v == nil || types.Identical(v, u) {
			return true
		}
		pass.Reportf(call.Pos(),
			"bare conversion mixes units: %s built from a %s; use the units package combinators (units.Energy, units.Power, units.TimeFor) or convert through an explicit rate",
			u.Obj().Name(), v.Obj().Name())
		return false
	})
}

func checkCompositeLit(pass *analysis.Pass, cl *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range cl.Elts {
		var ft types.Type
		var fname string
		var val ast.Expr
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == key.Name {
					ft, fname = st.Field(j).Type(), key.Name
					break
				}
			}
			val = kv.Value
		} else if i < st.NumFields() {
			ft, fname, val = st.Field(i).Type(), st.Field(i).Name(), el
		}
		if ft == nil {
			continue
		}
		u := unitType(ft)
		if u == nil {
			continue
		}
		if lit, ok := rawNonzeroLiteral(pass, val); ok {
			pass.Reportf(val.Pos(),
				"raw literal %s assigned to field %s (%s); construct the quantity explicitly (units.MilliVolts, units.MHz, units.Microseconds, units.%s(...))",
				lit, fname, u.Obj().Name(), u.Obj().Name())
		}
	}
}

// rawNonzeroLiteral reports whether e is a nonzero constant expression
// built purely from numeric literals (0.85, -97, 10*60). Named
// constants and function results carry intent and pass; zero is exempt
// because 0 mV and 0 µs denote the same quantity, so a bare 0 cannot be
// misread. The returned string renders the offending expression.
func rawNonzeroLiteral(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	pure := true
	sawLit := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.ParenExpr, *ast.UnaryExpr, *ast.BinaryExpr:
		case *ast.BasicLit:
			sawLit = true
		default:
			pure = false
		}
		return pure
	})
	if !pure || !sawLit {
		return "", false
	}
	if v := constant.ToFloat(tv.Value); v.Kind() == constant.Float || v.Kind() == constant.Int {
		if f, _ := constant.Float64Val(v); f == 0 {
			return "", false
		}
	}
	return render(pass, e), true
}

// render prints the expression as it appears in source.
func render(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "literal"
	}
	return buf.String()
}

// callSignature resolves the signature of a non-conversion call.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return nil
	}
	return sig
}
