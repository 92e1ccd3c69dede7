// Package puritywall implements the transitive determinism-wall
// analyzer — the function-granular source of truth for the contract
// that detwall (the fast, package-local first pass) approximates
// syntactically.
//
// A function defined inside the wall (internal/lint/wall's package
// list) must be a pure function of (config, seed). puritywall builds
// the cross-package call graph (internal/lint/callgraph) and verifies
// that no wall function *reaches*, through any chain of direct calls,
// method values, stored function values or goroutine launches, a sink
// that consults ambient host state:
//
//   - wall-clock reads and waits (time.Now, Since, Until, Sleep,
//     After, Tick, NewTimer, NewTicker, AfterFunc),
//   - the process-wide math/rand and math/rand/v2 sources (package-
//     level draws; explicit generator constructors are seedflow's
//     concern),
//   - environment reads (os.Getenv & friends, syscall.Getenv),
//   - host shape queries (runtime.GOMAXPROCS, runtime.NumCPU).
//
// The search stops at the audited contract boundary (wall.Contract):
// the fleet, journal, metrics, report, plot, profile and precision
// packages contain wall clocks and goroutines by design, and their own
// contracts (index-ordered merge, keyed replay, pure observation) make
// the crossing observationally deterministic. Those
// packages get their own analyzers (synccheck, stickyerr, floatorder)
// instead.
//
// Diagnostics carry the full offending call path from the wall
// function to the sink, anchored at the first edge of the chain — the
// line a //varsim:allow puritywall directive must sit on, keeping
// suppression on the one crossing point. A chain that stays inside the
// wall reports only at its last hop (the wall function whose body
// takes the fatal edge): fixing or suppressing that one function
// settles every wall caller above it.
package puritywall

import (
	"fmt"
	"strings"

	"varsim/internal/lint/analysis"
	"varsim/internal/lint/callgraph"
	"varsim/internal/lint/wall"
)

// Analyzer is the puritywall analysis.
var Analyzer = &analysis.Analyzer{
	Name:       "puritywall",
	Doc:        "forbid wall functions from transitively reaching wall clocks, global rand, env reads or GOMAXPROCS",
	RunProgram: run,
}

// sink describes one forbidden callee.
type sink struct{ desc string }

// sinkFuncs maps package path → function name → description for the
// package-level sink functions.
var sinkFuncs = map[string]map[string]sink{
	"time": {
		"Now": {"wall-clock read"}, "Since": {"wall-clock read"},
		"Until": {"wall-clock read"}, "Sleep": {"wall-clock wait"},
		"After": {"wall-clock wait"}, "Tick": {"wall-clock wait"},
		"NewTimer": {"wall-clock timer"}, "NewTicker": {"wall-clock timer"},
		"AfterFunc": {"wall-clock timer"},
	},
	"os": {
		"Getenv": {"environment read"}, "LookupEnv": {"environment read"},
		"Environ": {"environment read"}, "ExpandEnv": {"environment read"},
	},
	"syscall": {
		"Getenv": {"environment read"}, "Environ": {"environment read"},
	},
	"runtime": {
		"GOMAXPROCS": {"host shape query"}, "NumCPU": {"host shape query"},
	},
}

// randConstructors are the math/rand functions that build explicit
// generators rather than drawing from the global source; they are
// seedflow's concern, not a purity sink.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sinkOf classifies id as a sink, returning its description.
func sinkOf(id callgraph.FuncID) (sink, bool) {
	if strings.HasPrefix(id.Name, "(") {
		return sink{}, false // methods (rand.Rand draws, time.Timer.Stop) are fine
	}
	name := id.Name[strings.LastIndexByte(id.Name, '.')+1:]
	if set := sinkFuncs[id.PkgPath]; set != nil {
		if s, ok := set[name]; ok {
			return s, true
		}
	}
	if (id.PkgPath == "math/rand" || id.PkgPath == "math/rand/v2") && !randConstructors[name] {
		return sink{desc: "process-wide rand source"}, true
	}
	return sink{}, false
}

// follow reports whether the transitive search may traverse an edge to
// callee: contract packages terminate the search by design.
func follow(callee callgraph.FuncID) bool { return !wall.Contract(callee.PkgPath) }

func run(pass *analysis.ProgramPass) (interface{}, error) {
	g := callgraph.Build(pass.Fset, pass.Packages)

	// Pass 1: direct sinks, in node/edge order.
	directs := map[*callgraph.Node]direct{}
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			if s, ok := sinkOf(e.Callee); ok {
				directs[n] = direct{edge: e, sink: s}
				break
			}
		}
	}

	// Pass 2: taint fixpoint — a node is tainted when it has a direct
	// sink or a followable edge to a tainted node.
	tainted := map[*callgraph.Node]bool{}
	for n := range directs {
		tainted[n] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if tainted[n] {
				continue
			}
			for _, e := range n.Edges {
				if !follow(e.Callee) {
					continue
				}
				if c, ok := g.ByID[e.Callee]; ok && tainted[c] {
					tainted[n] = true
					changed = true
					break
				}
			}
		}
	}

	// Pass 3: report wall functions. Direct sinks report themselves;
	// otherwise the first edge into a tainted non-wall callee reports
	// with the reconstructed path. Edges to tainted *wall* callees are
	// skipped — that callee carries its own diagnostic, and fixing it
	// fixes every wall caller above.
	for _, n := range g.Nodes {
		if !wall.Inside(n.ID.PkgPath) {
			continue
		}
		if d, ok := directs[n]; ok {
			pass.Reportf(d.edge.Pos, "determinism-wall breach: %s %s %s (%s)",
				short(n.ID), d.edge.Kind, short(d.edge.Callee), d.sink.desc)
			continue
		}
		for _, e := range n.Edges {
			if !follow(e.Callee) || wall.Inside(e.Callee.PkgPath) {
				continue
			}
			c, ok := g.ByID[e.Callee]
			if !ok || !tainted[c] {
				continue
			}
			chain, s := path(g, directs, c)
			pass.Reportf(e.Pos, "determinism-wall breach: %s %s %s; %s (%s)",
				short(n.ID), e.Kind, short(e.Callee), chain, s.desc)
			break // one path per wall function is actionable enough
		}
	}
	return nil, nil
}

// path reconstructs, by BFS in deterministic edge order, the shortest
// chain from start to a direct sink through tainted nodes, rendering
// it as "A calls B; B launches goroutine C; C calls time.Now".
func path(g *callgraph.Graph, directs map[*callgraph.Node]direct, start *callgraph.Node) (string, sink) {
	type hop struct {
		node *callgraph.Node
		prev int // index into visited, -1 for start
		via  callgraph.Edge
	}
	visited := []hop{{node: start, prev: -1}}
	seen := map[*callgraph.Node]bool{start: true}
	render := func(i int) (string, sink) {
		// Unwind to the start, then append the final sink hop.
		var hops []hop
		for j := i; j >= 0; j = visited[j].prev {
			hops = append(hops, visited[j])
		}
		var b strings.Builder
		for j := len(hops) - 1; j > 0; j-- {
			from, e := hops[j].node, hops[j-1].via
			fmt.Fprintf(&b, "%s %s %s; ", short(from.ID), e.Kind, short(e.Callee))
		}
		last := hops[0].node
		d := directs[last]
		fmt.Fprintf(&b, "%s %s %s", short(last.ID), d.edge.Kind, short(d.edge.Callee))
		return b.String(), d.sink
	}
	for i := 0; i < len(visited); i++ {
		n := visited[i].node
		if _, ok := directs[n]; ok {
			return render(i)
		}
		for _, e := range n.Edges {
			if !follow(e.Callee) {
				continue
			}
			c, ok := g.ByID[e.Callee]
			if !ok || seen[c] {
				continue
			}
			seen[c] = true
			visited = append(visited, hop{node: c, prev: i, via: e})
		}
	}
	// Unreachable when start is tainted; keep a defensive rendering.
	return short(start.ID) + " (path not reconstructed)", sink{desc: "unknown sink"}
}

// direct records a node's first in-body sink edge.
type direct struct {
	edge callgraph.Edge
	sink sink
}

// short strips the module-internal prefix from a function identity for
// readable diagnostics.
func short(id callgraph.FuncID) string {
	return strings.ReplaceAll(id.Name, "varsim/internal/", "")
}
