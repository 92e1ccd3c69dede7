// Package lint is the varsimlint driver: it wires the determinism
// analyzers to the package loader, runs per-package and whole-program
// passes, applies //varsim:allow suppression globally, audits the
// directives themselves, and returns findings in a deterministic
// order. cmd/varsimlint is a thin CLI over Run; the
// analyzers' own tests go through internal/lint/analysistest instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"varsim/internal/lint/analysis"
	"varsim/internal/lint/detwall"
	"varsim/internal/lint/directive"
	"varsim/internal/lint/floatorder"
	"varsim/internal/lint/kindexhaust"
	"varsim/internal/lint/loader"
	"varsim/internal/lint/maporder"
	"varsim/internal/lint/puritywall"
	"varsim/internal/lint/seedflow"
	"varsim/internal/lint/staleallow"
	"varsim/internal/lint/stickyerr"
	"varsim/internal/lint/synccheck"
)

// Analyzers returns the full determinism suite in stable order. The
// fast per-package wall checks run first (detwall is the coarse pass
// whose package blocklist puritywall refines), then the per-package
// hygiene analyzers, then the whole-program and driver-level audits.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detwall.Analyzer,
		seedflow.Analyzer,
		maporder.Analyzer,
		kindexhaust.Analyzer,
		synccheck.Analyzer,
		stickyerr.Analyzer,
		floatorder.Analyzer,
		puritywall.Analyzer,
		staleallow.Analyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Finding is one surviving diagnostic, resolved to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	// File is Pos.Filename relative to the lint root with forward
	// slashes: the machine-portable path the github format prints.
	File    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns (go list syntax, run from
// dir; "" = current directory), applies every per-package analyzer to
// each package and every whole-program analyzer to the set, filters
// through //varsim:allow, audits directive staleness, and returns
// findings sorted by position.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	l := loader.New(dir)
	metas, err := l.List(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*loader.Package
	for _, meta := range metas {
		if e := meta.Err(); e != nil {
			return nil, fmt.Errorf("lint: %s: %s", meta.ImportPath, e.Err)
		}
		if len(meta.GoFiles) == 0 {
			continue
		}
		pkg, err := l.Load(meta.ImportPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}

	var diags []analysis.Diagnostic

	// Per-package passes.
	for _, pkg := range pkgs {
		diags = append(diags, analyzePackage(pkg, analyzers)...)
	}

	// Whole-program passes see every loaded package at once.
	progPkgs := make([]*analysis.ProgramPackage, len(pkgs))
	for i, pkg := range pkgs {
		progPkgs[i] = &analysis.ProgramPackage{Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a := a
		pass := &analysis.ProgramPass{Analyzer: a, Fset: l.Fset, Packages: progPkgs}
		pass.Report = func(d analysis.Diagnostic) {
			d.Category = a.Name
			diags = append(diags, d)
		}
		if _, err := a.RunProgram(pass); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pos:      token.NoPos,
				Category: a.Name,
				Message:  fmt.Sprintf("analyzer error: %v", err),
			})
		}
	}

	// Suppression is applied globally so the usage mask spans the whole
	// run: an allow is stale only if no diagnostic anywhere used it.
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	allows, malformed := directive.Parse(l.Fset, allFiles)
	kept, used := directive.Apply(l.Fset, allows, diags)
	for _, d := range malformed {
		d.Category = "directive"
		kept = append(kept, d)
	}

	// The staleallow audit runs driver-side: it needs the usage mask.
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	if selected[staleallow.Analyzer.Name] {
		kept = append(kept, staleallow.Check(allows, used,
			func(name string) bool { return selected[name] },
			func(name string) bool { return ByName(name) != nil },
		)...)
	}

	findings := make([]Finding, 0, len(kept))
	root := rootDir(dir)
	for _, d := range kept {
		pos := l.Fset.Position(d.Pos)
		findings = append(findings, Finding{
			Analyzer: d.Category,
			Pos:      pos,
			File:     relPath(root, pos.Filename),
			Message:  d.Message,
		})
	}
	sort.Slice(findings, func(i, j int) bool { return less(findings[i], findings[j]) })
	return findings, nil
}

// analyzePackage runs the per-package analyzers over one loaded
// package. Suppression is NOT applied here — the driver filters
// globally so directive usage is tracked across program passes too.
func analyzePackage(pkg *loader.Package, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			d.Category = a.Name
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pos:      token.NoPos,
				Category: a.Name,
				Message:  fmt.Sprintf("analyzer error: %v", err),
			})
		}
	}
	return diags
}

// rootDir resolves the lint invocation directory to an absolute path
// for relativizing finding filenames; "" means the current directory.
func rootDir(dir string) string {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// relPath renders filename relative to root with forward slashes,
// falling back to the absolute path outside the tree.
func relPath(root, filename string) string {
	if filename == "" {
		return ""
	}
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

func less(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}
