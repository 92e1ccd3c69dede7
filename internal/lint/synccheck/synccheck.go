// Package synccheck implements the concurrency-contract analyzer for
// the code *outside* the determinism wall — the fleet scheduler, the
// journal, the observability server — whose bugs are themselves a
// first-class variability source (the OpenMP characterization in
// PAPERS.md: barrier and lock misuse perturbs timing-sensitive runs).
// It flags two classic misuse shapes that go vet does not (vet's
// copylocks, which `make check` runs, already catches sync primitives
// copied by value):
//
//   - WaitGroup.Add inside the goroutine it accounts for: the launch
//     races the Add, so a Wait that runs before the goroutine is
//     scheduled returns early. Add must happen before the go
//     statement.
//
//   - a lock held across a channel send: if the receiver needs the
//     same lock to drain the channel, the send deadlocks; even when it
//     does not, the send serializes unrelated work under the lock.
//     Sends inside a select with a default case are non-blocking and
//     exempt.
package synccheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"varsim/internal/lint/analysis"
)

// Analyzer is the synccheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "synccheck",
	Doc:  "flag WaitGroup.Add inside the spawned goroutine and locks held across channel sends",
	Run:  run,
}

// lockMethods classifies sync lock/unlock methods by FullName.
var (
	lockMethods = map[string]bool{
		"(*sync.Mutex).Lock": true, "(*sync.RWMutex).Lock": true,
		"(*sync.RWMutex).RLock": true, "(sync.Locker).Lock": true,
	}
	unlockMethods = map[string]bool{
		"(*sync.Mutex).Unlock": true, "(*sync.RWMutex).Unlock": true,
		"(*sync.RWMutex).RUnlock": true, "(sync.Locker).Unlock": true,
	}
	addMethod = "(*sync.WaitGroup).Add"
)

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scanHeld(pass, n.Body.List, map[string]token.Pos{})
				}
			case *ast.FuncLit:
				scanHeld(pass, n.Body.List, map[string]token.Pos{})
			case *ast.GoStmt:
				checkGoAdd(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkGoAdd flags WaitGroup.Add calls lexically inside a go
// statement's function literal: Add races the launch it accounts for.
func checkGoAdd(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, nested := n.(*ast.GoStmt); nested {
			return false // the nested launch gets its own visit
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == addMethod {
			pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races the launch: Wait may return before this goroutine is scheduled; call Add before the go statement")
		}
		return true
	})
}

// scanHeld walks one statement list tracking which locks are held,
// reporting channel sends that happen under a lock. Nested blocks scan
// with a copy of the held set (an unlock on one branch must not clear
// the fall-through path); function literals reset the context.
func scanHeld(pass *analysis.Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if name, isLock, isUnlock := lockCall(pass, s.X); isLock {
				held[name] = s.Pos()
			} else if isUnlock {
				delete(held, name)
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of
			// the function: sends below still happen under it.
		case *ast.SendStmt:
			reportHeld(pass, s.Pos(), held)
		case *ast.BlockStmt:
			scanHeld(pass, s.List, copyHeld(held))
		case *ast.IfStmt:
			scanHeld(pass, s.Body.List, copyHeld(held))
			if els, ok := s.Else.(*ast.BlockStmt); ok {
				scanHeld(pass, els.List, copyHeld(held))
			} else if els, ok := s.Else.(*ast.IfStmt); ok {
				scanHeld(pass, []ast.Stmt{els}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanHeld(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanHeld(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			// A select with a default case never blocks, so a send in
			// one of its cases cannot deadlock under the lock; without
			// a default it blocks exactly like a bare send.
			hasDefault := false
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range s.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
					reportHeld(pass, send.Pos(), held)
				}
				scanHeld(pass, cc.Body, copyHeld(held))
			}
		case *ast.LabeledStmt:
			scanHeld(pass, []ast.Stmt{s.Stmt}, held)
		}
	}
}

func reportHeld(pass *analysis.Pass, pos token.Pos, held map[string]token.Pos) {
	// Report each held lock deterministically: pick the one with the
	// earliest Lock position (map order is randomized).
	var name string
	var lockPos token.Pos = -1
	for n, p := range held {
		if lockPos < 0 || p < lockPos || (p == lockPos && n < name) {
			name, lockPos = n, p
		}
	}
	if lockPos >= 0 {
		// Line number only: embedding the file path would make the
		// message differ across checkouts and churn the lint baseline.
		pass.Reportf(pos, "channel send while holding %s (locked at line %d): a receiver needing the lock deadlocks; send after Unlock", name, pass.Fset.Position(lockPos).Line)
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockCall classifies expr as a lock or unlock call on a sync
// primitive, returning the receiver expression's source rendering as
// the lock's identity.
func lockCall(pass *analysis.Pass, expr ast.Expr) (name string, isLock, isUnlock bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false, false
	}
	full := fn.FullName()
	switch {
	case lockMethods[full]:
		return types.ExprString(sel.X), true, false
	case unlockMethods[full]:
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}
