// Package facts is the cross-function, cross-package state store of the
// suitlint framework: an analyzer running over one package can export a
// deduction about a function ("may allocate", "tainted by the wall
// clock") and an analyzer running later over a *dependent* package can
// import it at a call site. It mirrors the role of object facts in
// golang.org/x/tools/go/analysis, built on the standard library only.
//
// Facts are keyed by (package import path, object name) rather than by
// *types.Object identity, because the same function is a different
// object on each side of a package boundary: the loader type-checks a
// package from source, and its dependents see it through compiler
// export data. String keys survive both. Only package-level functions
// and methods are addressable; closures have no stable name and must be
// summarized into their enclosing declaration by the analyzer.
package facts

import (
	"go/types"
	"reflect"
	"sync"
)

// A Fact is one deduction about a function. Concrete fact types are
// pointers to plain structs.
type Fact interface {
	// AFact is a marker so arbitrary values cannot be stored by
	// accident.
	AFact()
}

// factName names a fact's concrete type, e.g. "allocfree.Allocates", so
// one function can carry one fact of each type.
func factName(f Fact) string {
	return reflect.TypeOf(f).Elem().String()
}

// A Key addresses one function across type-checking passes.
type Key struct {
	Pkg string // package import path
	Obj string // "F" for functions, "(T).M" / "(*T).M" for methods
}

// FuncKey derives the stable key for a function or method, reporting
// false for objects that have no cross-session name: nil, functions
// outside any package (builtins), init functions (each is a distinct
// anonymous object) and methods on unnamed receiver types.
func FuncKey(fn *types.Func) (Key, bool) {
	if fn == nil || fn.Pkg() == nil {
		return Key{}, false
	}
	fn = fn.Origin() // generic instantiations share the origin's facts
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return Key{}, false
	}
	name := fn.Name()
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, okp := t.(*types.Pointer); okp {
			ptr = "*"
			t = p.Elem()
		}
		named, okn := t.(*types.Named)
		if !okn {
			return Key{}, false
		}
		name = "(" + ptr + named.Obj().Name() + ")." + fn.Name()
	} else if name == "init" || name == "_" {
		return Key{}, false
	}
	return Key{Pkg: fn.Pkg().Path(), Obj: name}, true
}

// A Store holds the facts of one analysis session; every analyzed
// package reads and writes through it.
type Store struct {
	mu sync.Mutex
	m  map[Key]map[string]Fact
}

// NewStore returns an empty fact store.
func NewStore() *Store {
	return &Store{m: map[Key]map[string]Fact{}}
}

// Export records fact for fn, overwriting a previous fact of the same
// concrete type. It reports whether fn was addressable.
func (s *Store) Export(fn *types.Func, f Fact) bool {
	key, ok := FuncKey(fn)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byType := s.m[key]
	if byType == nil {
		byType = map[string]Fact{}
		s.m[key] = byType
	}
	byType[factName(f)] = f
	return true
}

// Import looks up a fact of ptr's concrete type for fn and, when found,
// copies it into *ptr and reports true.
func (s *Store) Import(fn *types.Func, ptr Fact) bool {
	key, ok := FuncKey(fn)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, okf := s.m[key][factName(ptr)]
	if !okf {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}
