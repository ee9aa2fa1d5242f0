package graph

import (
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Graph is a directed graph over comparable node keys — the map-keyed
// reference that TestDenseMatchesGenericOnRandomGraphs checks Dense against,
// differentially; graph_test.go and dot_test.go test it directly. It lives
// in a test file because nothing outside this package's tests uses it. The
// zero value is not usable; construct with New. Adding an edge implicitly
// adds its endpoints.
//
// Parallel edges are stored as-is rather than deduplicated: the verifier adds
// the same ordering fact from several advice sources, cycle detection and
// topological sorting are indifferent to duplicates, and skipping the
// dedup-map lookup keeps AddEdge — the hottest graph operation in an audit —
// to a single map access.
type Graph[N comparable] struct {
	adj   map[N][]N
	nodes []N // insertion order; every iteration walks this, never the map
	n     int // edge count, duplicates included
}

// New returns an empty graph.
func New[N comparable]() *Graph[N] {
	return &Graph[N]{adj: make(map[N][]N)}
}

// AddNode ensures n is present (possibly with no edges).
func (g *Graph[N]) AddNode(n N) {
	if _, ok := g.adj[n]; !ok {
		g.adj[n] = nil
		g.nodes = append(g.nodes, n)
	}
}

// HasNode reports whether n has been added.
func (g *Graph[N]) HasNode(n N) bool {
	_, ok := g.adj[n]
	return ok
}

// AddEdge inserts the directed edge from→to, adding both endpoints if needed.
func (g *Graph[N]) AddEdge(from, to N) {
	g.AddNode(from)
	g.AddNode(to)
	g.adj[from] = append(g.adj[from], to)
	g.n++
}

// HasEdge reports whether the directed edge from→to is present. It scans the
// successor list; it exists for tests, not for hot paths.
func (g *Graph[N]) HasEdge(from, to N) bool {
	for _, t := range g.adj[from] {
		if t == to {
			return true
		}
	}
	return false
}

// NumNodes returns the number of nodes.
func (g *Graph[N]) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges, counting duplicates.
func (g *Graph[N]) NumEdges() int { return g.n }

// Succ returns a copy of the successor list of n. Handing out the internal
// slice was an aliasing hazard — a caller's append or sort could silently
// rewrite edges under a concurrent merge — so callers own what they get.
func (g *Graph[N]) Succ(n N) []N {
	s := g.adj[n]
	if len(s) == 0 {
		return nil
	}
	return append([]N(nil), s...)
}

// Nodes returns all nodes in insertion order. The order is deterministic so
// that everything derived from a node sweep — cycle reports, topological
// sorts, DOT dumps — is a pure function of the call sequence that built the
// graph, never of Go's randomized map iteration.
func (g *Graph[N]) Nodes() []N {
	return append([]N(nil), g.nodes...)
}

// FindCycle returns a cycle as a node sequence (first == last) if the graph
// is cyclic, and nil otherwise. Detection is an iterative three-color DFS;
// the explicit stack keeps worst-case audits from exhausting goroutine stack
// space.
func (g *Graph[N]) FindCycle() []N {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[N]int8, len(g.adj))
	parent := make(map[N]N, len(g.adj))

	type frame struct {
		node N
		next int
	}
	// Starting roots in insertion order makes the *reported* cycle — and so
	// the rejection Reason shown to operators — deterministic for a given
	// build sequence.
	for _, start := range g.nodes {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succ := g.adj[f.node]
			if f.next < len(succ) {
				child := succ[f.next]
				f.next++
				switch color[child] {
				case white:
					color[child] = gray
					parent[child] = f.node
					stack = append(stack, frame{node: child})
				case gray:
					// Found a back edge f.node→child: reconstruct the cycle.
					cycle := []N{child}
					for n := f.node; ; n = parent[n] {
						cycle = append(cycle, n)
						if n == child {
							break
						}
					}
					slices.Reverse(cycle)
					return cycle
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Graph[N]) HasCycle() bool { return g.FindCycle() != nil }

// TopoSort returns the nodes in a topological order, or ok=false if the
// graph is cyclic. The verifier's proofs work with topological sorts of G
// (well-formed op schedules, Appendix C.2); tests use TopoSort to derive
// schedules.
func (g *Graph[N]) TopoSort() (order []N, ok bool) {
	indeg := make(map[N]int, len(g.adj))
	for n := range g.adj {
		indeg[n] += 0
	}
	for _, succ := range g.adj {
		for _, t := range succ {
			indeg[t]++
		}
	}
	queue := make([]N, 0, len(g.adj))
	for _, n := range g.nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	order = make([]N, 0, len(g.adj))
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, n)
		for _, t := range g.adj[n] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) != len(g.adj) {
		return nil, false
	}
	return order, true
}

// Reachable reports whether to is reachable from from by a non-empty path.
func (g *Graph[N]) Reachable(from, to N) bool {
	seen := make(map[N]bool)
	stack := append([]N(nil), g.adj[from]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.adj[n]...)
	}
	return false
}

// DOT writes the graph in Graphviz DOT format, labeling nodes with label and
// (when highlight is non-nil) coloring the nodes of one path — typically a
// cycle the audit rejected on. The verifier exposes this for debugging; it
// is not on any hot path.
func (g *Graph[N]) DOT(w io.Writer, name string, label func(N) string, highlight []N) error {
	lit := func(n N) string {
		return strconv.Quote(label(n))
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n", name); err != nil {
		return err
	}
	hl := make(map[N]bool, len(highlight))
	for _, n := range highlight {
		hl[n] = true
	}
	for _, n := range g.Nodes() {
		attrs := ""
		if hl[n] {
			attrs = " [style=filled, fillcolor=salmon]"
		}
		if _, err := fmt.Fprintf(w, "  %s%s;\n", lit(n), attrs); err != nil {
			return err
		}
	}
	for _, from := range g.nodes {
		for _, to := range g.adj[from] {
			attrs := ""
			if hl[from] && hl[to] {
				attrs = " [color=red, penwidth=2]"
			}
			if _, err := fmt.Fprintf(w, "  %s -> %s%s;\n", lit(from), lit(to), attrs); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
