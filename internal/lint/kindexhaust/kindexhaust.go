// Package kindexhaust implements the enum-exhaustiveness analyzer for
// the simulator's Kind types.
//
// The machine dispatches on sim.Kind, the workload engine on
// workload.OpKind, and trace analyses on trace.Kind. Each of those
// enums carries a table-driven name test
// that keeps the String tables complete — but nothing kept the switch
// statements honest: adding a variant could silently fall through an
// old switch and, worse than crashing, keep simulating with subtly
// wrong behaviour that corrupts the variability statistics.
//
// kindexhaust requires every switch whose tag is a named integer type
// called `Kind` (or ending in `Kind`) to either
//
//   - cover every declared constant of the type (sentinel counters such
//     as numKinds are exempt), or
//   - have a default case that panics, turning an unhandled variant
//     into a loud failure instead of silent mis-simulation.
//
// Switches that intentionally examine a subset and skip the rest (for
// example trace report builders that only care about lock events) carry
// a //varsim:allow kindexhaust <reason> directive.
package kindexhaust

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"varsim/internal/lint/analysis"
)

// Analyzer is the kindexhaust analysis.
var Analyzer = &analysis.Analyzer{
	Name: "kindexhaust",
	Doc:  "require switches over Kind enums to cover all variants or panic in default",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil, nil
}

// checkSwitch analyzes one tagged switch statement.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	named := enumType(tagType)
	if named == nil {
		return
	}
	variants := enumVariants(named)
	if len(variants) < 2 {
		return // not an enum worth policing
	}

	covered := map[int64]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		clause := stmt.(*ast.CaseClause)
		if clause.List == nil {
			defaultClause = clause
			continue
		}
		for _, expr := range clause.List {
			tv, ok := pass.TypesInfo.Types[expr]
			if !ok || tv.Value == nil {
				return // non-constant case: out of scope for this check
			}
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				covered[v] = true
			}
		}
	}

	var missing []string
	for _, v := range variants {
		if !covered[v.value] {
			missing = append(missing, v.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	if defaultClause != nil {
		if panics(pass, defaultClause) {
			return
		}
		pass.Reportf(sw.Pos(), "switch over %s does not cover %s and its default does not panic: handle the variants or fail loudly", typeName(named), strings.Join(missing, ", "))
		return
	}
	pass.Reportf(sw.Pos(), "switch over %s is missing %s and has no default: cover every variant or add a panicking default", typeName(named), strings.Join(missing, ", "))
}

// enumType returns t as a named Kind enum (named type, integer
// underlying, name `Kind` or `*Kind`), or nil.
func enumType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	name := named.Obj().Name()
	if name != "Kind" && !strings.HasSuffix(name, "Kind") {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

// variant is one declared enum constant.
type variant struct {
	name  string
	value int64
}

// enumVariants collects the package-level constants of the enum's type
// from its defining package, skipping sentinel counters (numKinds,
// NumOps, maxKind, ...). Distinct names sharing a value collapse to the
// first name in source order of the sorted package scope.
func enumVariants(named *types.Named) []variant {
	scope := named.Obj().Pkg().Scope()
	seen := map[int64]bool{}
	var out []variant
	for _, name := range scope.Names() { // Names() is sorted: deterministic
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if isSentinelName(name) {
			continue
		}
		v, exact := constant.Int64Val(constant.ToInt(c.Val()))
		if !exact || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, variant{name: name, value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

// isSentinelName reports whether an enum constant is a counter or
// bound, not a real variant.
func isSentinelName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "num") ||
		strings.HasPrefix(lower, "max") ||
		strings.HasPrefix(lower, "min") ||
		strings.HasPrefix(lower, "_") ||
		strings.Contains(lower, "sentinel") ||
		strings.Contains(lower, "invalid")
}

// panics reports whether a default clause's body (including nested
// blocks) contains a call to the panic builtin.
func panics(pass *analysis.Pass, clause *ast.CaseClause) bool {
	found := false
	for _, stmt := range clause.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
					found = true
				}
			}
			return true
		})
	}
	return found
}

// typeName renders pkg.Type for diagnostics.
func typeName(named *types.Named) string {
	obj := named.Obj()
	return fmt.Sprintf("%s.%s", obj.Pkg().Name(), obj.Name())
}
