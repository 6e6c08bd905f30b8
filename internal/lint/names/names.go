// Package names canonicalizes expressions that denote synchronization
// objects — mutexes, wait groups, done channels — into stable,
// cross-package strings, so facts about them survive serialization
// between driver runs.
//
// Static analysis cannot distinguish instances of a struct, so the
// canonical name identifies the *lock class*: every Engine's flightMu
// is "engine.Engine.flightMu". That is the standard approximation for
// lock-order analysis (two instances of one class locked in both
// orders is itself a pattern worth flagging), and exactly what a
// deadlock report needs to name.
package names

import (
	"go/ast"
	"go/types"

	"extremalcq/internal/lint/scope"
)

// Canon returns the canonical name of the sync object denoted by expr:
//
//	"pkg.Type.field"  a field selection, through any chain of
//	                  receivers and pointers (e.mu, s.active().mu)
//	"pkg.var"         a package-level variable
//	"pkg.Type"        a named struct value itself (the embedded-mutex
//	                  pattern: type T struct{ sync.Mutex }; t.Lock())
//
// ok is false for locals and shapes with no stable identity (a mutex
// in a map value, an anonymous struct).
func Canon(info *types.Info, expr ast.Expr) (string, bool) {
	expr = ast.Unparen(expr)
	if star, isStar := expr.(*ast.StarExpr); isStar {
		expr = ast.Unparen(star.X)
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			field := sel.Obj()
			if named := namedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return scope.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + field.Name(), true
			}
			return "", false
		}
		// No selection entry: a qualified package-level identifier
		// (pkg.Var).
		return canonIdent(info, e.Sel)
	case *ast.Ident:
		if name, ok := canonIdent(info, e); ok {
			return name, ok
		}
		// A local whose type is a named struct from some package: the
		// embedded-sync pattern, identified by its type. The sync
		// package's own types are excluded — naming every local
		// `var mu sync.Mutex` as one class would conflate unrelated
		// locks across the whole tree.
		if tv, ok := info.Types[e]; ok {
			if named := namedOf(tv.Type); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
				if _, isStruct := named.Underlying().(*types.Struct); isStruct {
					return scope.Base(named.Obj().Pkg().Path()) + "." + named.Obj().Name(), true
				}
			}
		}
	}
	return "", false
}

// canonIdent canonicalizes an identifier resolving to a package-level
// variable.
func canonIdent(info *types.Info, id *ast.Ident) (string, bool) {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	return scope.Base(v.Pkg().Path()) + "." + v.Name(), true
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		return n.Origin()
	}
	return nil
}
