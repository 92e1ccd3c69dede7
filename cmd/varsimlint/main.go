// Command varsimlint runs the simulator's determinism analyzers over
// Go packages and reports contract violations.
//
// Usage:
//
//	varsimlint [flags] [packages]
//
// Packages default to ./... and use go list pattern syntax. The exit
// status is 0 when the tree is clean, 1 when findings are reported and
// 2 on usage or load errors.
//
// The suite enforces the determinism contract described in
// docs/DETERMINISM.md. Inside the wall: detwall (no wall clocks, global
// rand, env reads, goroutines or select in the simulation core, by
// package import), puritywall (the same sinks traced transitively
// through the cross-package call graph, with the full offending call
// path), seedflow (all RNG construction flows through
// varsim/internal/rng), maporder (no map-iteration order leaking into
// results), and kindexhaust (switches over Kind enums cover every
// variant or panic). Outside the wall: synccheck (WaitGroup.Add
// races, locks held across channel sends), stickyerr (discarded journal/fleet errors), and floatorder
// (float accumulation in completion order). staleallow audits
// `//varsim:allow <analyzer> <reason>` directives that no longer
// suppress anything.
//
// Output formats: -format text (default) or github (GitHub Actions
// workflow annotations). A finding is accepted where it stands,
// with a reasoned //varsim:allow, or not at all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"varsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("varsimlint", flag.ContinueOnError)
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	format := fs.String("format", "text", "output format: text, github")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: varsimlint [-analyzers a,b,...] [-format text|github] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "varsimlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint.Run("", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "varsimlint: %v\n", err)
		return 2
	}

	if err := emit(stdout, *format, findings); err != nil {
		fmt.Fprintf(os.Stderr, "varsimlint: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "varsimlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// emit renders findings in the requested format.
func emit(w io.Writer, format string, findings []lint.Finding) error {
	switch format {
	case "text":
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
	case "github":
		// GitHub Actions workflow commands: each finding becomes an
		// inline annotation on the PR diff.
		for _, f := range findings {
			fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=varsimlint %s::%s\n",
				f.File, f.Pos.Line, f.Pos.Column, f.Analyzer, escapeGitHub(f.Message))
		}
	default:
		return fmt.Errorf("unknown format %q (want text or github)", format)
	}
	return nil
}

// escapeGitHub applies the workflow-command data escaping rules.
func escapeGitHub(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
