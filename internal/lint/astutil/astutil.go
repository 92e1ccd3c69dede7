// Package astutil holds the small AST/type helpers shared by the
// varsimlint analyzers: identifier rooting, scope tests, and callee
// resolution. Each helper takes the types.Info the pass already
// carries, so analyzers stay stateless.
package astutil

import (
	"go/ast"
	"go/types"
)

// RootIdent returns the base identifier of expr (x, x.f, x[i], *x,
// &x → x), or nil when the expression does not bottom out in one.
func RootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X // &b: the target is still b
		default:
			return nil
		}
	}
}

// DeclaredOutside reports whether id's object is declared outside the
// node span [from, to] — i.e. the code is mutating state that
// survives the enclosing loop or function literal.
func DeclaredOutside(info *types.Info, from, to ast.Node, id *ast.Ident) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	pos := obj.Pos()
	if !pos.IsValid() {
		return false
	}
	return pos < from.Pos() || pos > to.End()
}

// Callee resolves a call expression to the concrete package-level
// function or method it invokes, or nil for builtins, conversions,
// function-typed values and interface-method calls that cannot be
// resolved statically.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		// Generic instantiation f[T](...).
		return Callee(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return Callee(info, &ast.CallExpr{Fun: fun.X})
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFloat reports whether t's underlying type is a floating-point or
// complex basic type (both accumulate non-associatively).
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
