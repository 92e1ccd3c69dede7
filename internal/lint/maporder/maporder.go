// Package maporder implements the map-iteration-order analyzer.
//
// Go randomizes map iteration order per run. Inside a simulator whose
// whole methodology depends on byte-identical replay, a `range` over a
// map is safe only when the loop body is order-insensitive. maporder
// flags the three body shapes that leak iteration order into results:
//
//   - appending to a slice declared outside the loop (the slice ends up
//     in a random permutation; even a later total-order sort belongs in
//     an audited sorted-key helper, not scattered at call sites),
//   - writing to a writer or encoder (fmt.Fprint*, Write*, Encode*,
//     Print*): bytes hit the output stream in random order,
//   - accumulating floating-point values declared outside the loop
//     (+=, -=, *=, /=): float arithmetic is not associative, so the sum
//     depends on visit order. Integer accumulation is exact and
//     commutative, and is deliberately not flagged.
//
// The point fix is to iterate sorted keys — see the sorted-key helpers
// (trace.sortedKeys, harness.sortedKeys, workloads.Names), each of
// which carries the one audited
// //varsim:allow maporder directive for its key-collection loop.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"varsim/internal/lint/analysis"
	"varsim/internal/lint/astutil"
)

// Analyzer is the maporder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag range-over-map loops whose body is sensitive to iteration order",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkBody(pass, rng)
			return true
		})
	}
	return nil, nil
}

// checkBody scans one map-range body for order-sensitive operations.
func checkBody(pass *analysis.Pass, rng *ast.RangeStmt) {
	body := rng.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested range over another map gets its own visit from
			// run; don't double-report its contents here. Nested
			// ranges over slices etc. stay in scope: their bodies
			// still execute in outer-map order.
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.CallExpr:
			checkCall(pass, rng, n)
		case *ast.AssignStmt:
			checkAssign(pass, rng, n)
		}
		return true
	})
}

// checkCall flags appends to outer slices and writer/encoder calls.
// Diagnostics anchor at the range statement — the loop is the unit a
// //varsim:allow directive suppresses — and name the offending call.
func checkCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	body := rng.Body
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if isBuiltinAppend(pass, fun) && len(call.Args) > 0 {
			if base := astutil.RootIdent(call.Args[0]); base != nil && declaredOutside(pass.TypesInfo, body, base) {
				pass.Reportf(rng.Pos(), "append to %s inside range over map: slice order follows randomized map iteration; iterate sorted keys instead", base.Name)
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		name := fn.Name()
		if _, isPkg := pass.TypesInfo.ObjectOf(baseIdent(fun.X)).(*types.PkgName); isPkg {
			// Package-level print functions: fmt.Fprint* writes its
			// first argument, fmt.Print* writes stdout. Either way the
			// stream sees map order.
			if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
				if base := astutil.RootIdent(call.Args[0]); base != nil && !declaredOutside(pass.TypesInfo, body, base) {
					return // writer is loop-local; per-iteration output
				}
				pass.Reportf(rng.Pos(), "%s inside range over map: output order follows randomized map iteration; iterate sorted keys instead", callName(fun))
			} else if strings.HasPrefix(name, "Print") {
				pass.Reportf(rng.Pos(), "%s inside range over map: output order follows randomized map iteration; iterate sorted keys instead", callName(fun))
			}
			return
		}
		// Methods: Write*/Encode*/Print* on a receiver that outlives
		// the loop (an encoder, a buffer, a tabwriter, ...).
		if !orderSensitiveMethodName(name) {
			return
		}
		if base := astutil.RootIdent(fun.X); base != nil && !declaredOutside(pass.TypesInfo, body, base) {
			return // loop-local builder; order cannot leak out whole
		}
		pass.Reportf(rng.Pos(), "%s inside range over map: output order follows randomized map iteration; iterate sorted keys instead", callName(fun))
	}
}

// orderSensitiveMethodName reports whether a method with this name
// writes to an output stream or encoder.
func orderSensitiveMethodName(name string) bool {
	for _, prefix := range []string{"Write", "Encode", "Print"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// callName renders a selector call target for the diagnostic message.
func callName(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// baseIdent returns expr as an identifier, or nil.
func baseIdent(expr ast.Expr) *ast.Ident {
	id, _ := expr.(*ast.Ident)
	return id
}

// checkAssign flags floating-point accumulation into outer variables.
func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, as *ast.AssignStmt) {
	body := rng.Body
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	for _, lhs := range as.Lhs {
		base := astutil.RootIdent(lhs)
		if base == nil || !declaredOutside(pass.TypesInfo, body, base) {
			continue
		}
		t := pass.TypesInfo.TypeOf(lhs)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			pass.Reportf(rng.Pos(), "floating-point accumulation into %s inside range over map: float addition is order-dependent; iterate sorted keys instead", base.Name)
		}
	}
}

// declaredOutside reports whether id's object is declared outside body,
// i.e. the loop is mutating state that survives the iteration.
func declaredOutside(info *types.Info, body *ast.BlockStmt, id *ast.Ident) bool {
	return astutil.DeclaredOutside(info, body, body, id)
}

// isBuiltinAppend reports whether id resolves to the append builtin.
func isBuiltinAppend(pass *analysis.Pass, id *ast.Ident) bool {
	if id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
