// Package graph provides the directed graph the Karousos verifier builds:
// the execution graph G over operations (paper §4.3, Figures 14–16, 21) and
// the Adya dependency graph DG over transactions (Figure 17) are both a
// Dense. Both audits reduce to "insist the graph is acyclic", so the central
// export is an iterative cycle detector that does not recurse (execution
// graphs over 600-request audits reach tens of thousands of nodes).
//
// Nodes are uint32 IDs assigned by the caller from a layout computed up-front
// (trace length + opcount totals), so presence is a bitmap and the edge list
// is one flat []uint32 — no per-node map entries, no per-node slice headers.
// Traversals (cycle check, topological sort, reachability) build a CSR index
// on demand with a stable counting sort, so successor order — and therefore
// every reported cycle — is the edge-insertion order.
package graph

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
)

// Dense is a directed graph over dense uint32 node IDs. The zero value is
// usable; NewDense pre-sizes it. Adding an edge implicitly adds
// its endpoints and parallel edges are kept as-is.
type Dense struct {
	present []uint64 // bitmap over IDs; bit set ⇔ node added
	nodes   int
	pairs   []uint32 // edges, interleaved from,to — insertion order
}

// NewDense returns a graph pre-sized for IDs in [0, capacity).
func NewDense(capacity int) *Dense {
	d := &Dense{}
	d.Grow(capacity)
	d.pairs = make([]uint32, 0, 4*capacity)
	return d
}

// Capacity returns the exclusive upper bound on IDs addable without growing.
func (d *Dense) Capacity() int { return len(d.present) * 64 }

// Grow extends the ID space to at least capacity.
func (d *Dense) Grow(capacity int) {
	words := (capacity + 63) / 64
	if words <= len(d.present) {
		return
	}
	p := make([]uint64, words)
	copy(p, d.present)
	d.present = p
}

// AddNode ensures id is present (possibly with no edges).
func (d *Dense) AddNode(id uint32) {
	w := int(id >> 6)
	if w >= len(d.present) {
		d.Grow(int(id) + 1)
	}
	bit := uint64(1) << (id & 63)
	if d.present[w]&bit == 0 {
		d.present[w] |= bit
		d.nodes++
	}
}

// HasNode reports whether id has been added.
func (d *Dense) HasNode(id uint32) bool {
	w := int(id >> 6)
	return w < len(d.present) && d.present[w]&(1<<(id&63)) != 0
}

// AddEdge inserts the directed edge from→to, adding both endpoints if needed.
func (d *Dense) AddEdge(from, to uint32) {
	d.AddNode(from)
	d.AddNode(to)
	d.pairs = append(d.pairs, from, to)
}

// AddEdges appends a batch of interleaved from,to pairs (len(pairs) even),
// adding endpoints as needed. This is the merge path for shard buffers.
func (d *Dense) AddEdges(pairs []uint32) {
	for i := 0; i < len(pairs); i += 2 {
		d.AddNode(pairs[i])
		d.AddNode(pairs[i+1])
	}
	d.pairs = append(d.pairs, pairs...)
}

// NumNodes returns the number of nodes.
func (d *Dense) NumNodes() int { return d.nodes }

// NumEdges returns the number of edges, counting duplicates.
func (d *Dense) NumEdges() int { return len(d.pairs) / 2 }

// HasEdge reports whether the directed edge from→to is present. It scans the
// flat edge list; it exists for tests, not for hot paths.
func (d *Dense) HasEdge(from, to uint32) bool {
	for i := 0; i < len(d.pairs); i += 2 {
		if d.pairs[i] == from && d.pairs[i+1] == to {
			return true
		}
	}
	return false
}

// EachNode calls fn for every node in ascending ID order.
func (d *Dense) EachNode(fn func(id uint32)) {
	for w, word := range d.present {
		for word != 0 {
			id := uint32(w<<6) + uint32(bits.TrailingZeros64(word))
			fn(id)
			word &= word - 1
		}
	}
}

// EachEdge calls fn for every edge in insertion order.
func (d *Dense) EachEdge(fn func(from, to uint32)) {
	for i := 0; i < len(d.pairs); i += 2 {
		fn(d.pairs[i], d.pairs[i+1])
	}
}

// csr is the compressed-sparse-row index over pairs: succ[start[v]:start[v+1]]
// are v's successors in edge-insertion order.
type csr struct {
	start []uint32 // len = maxID+2
	succ  []uint32
}

// buildCSR indexes the current edge list with a stable counting sort. O(V+E),
// two passes, no per-node allocation.
func (d *Dense) buildCSR() csr {
	maxID := uint32(0)
	if n := d.Capacity(); n > 0 {
		maxID = uint32(n - 1)
	}
	start := make([]uint32, int(maxID)+2)
	for i := 0; i < len(d.pairs); i += 2 {
		start[d.pairs[i]+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	succ := make([]uint32, len(d.pairs)/2)
	fill := make([]uint32, len(start))
	copy(fill, start)
	for i := 0; i < len(d.pairs); i += 2 {
		from, to := d.pairs[i], d.pairs[i+1]
		succ[fill[from]] = to
		fill[from]++
	}
	return csr{start: start, succ: succ}
}

// FindCycle returns a cycle as an ID sequence (first == last) if the graph is
// cyclic, and nil otherwise. Detection is an iterative three-color DFS over
// the CSR arrays; roots are visited in ascending ID order, so the reported
// cycle is a pure function of the edge set.
func (d *Dense) FindCycle() []uint32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	g := d.buildCSR()
	n := len(g.start) - 1
	color := make([]int8, n)
	parent := make([]uint32, n)

	type frame struct {
		node uint32
		next uint32
	}
	var stack []frame
	var cyc []uint32
	d.EachNode(func(root uint32) {
		if cyc != nil || color[root] != white {
			return
		}
		stack = append(stack[:0], frame{node: root})
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			lo, hi := g.start[f.node], g.start[f.node+1]
			if i := lo + f.next; i < hi {
				child := g.succ[i]
				f.next++
				switch color[child] {
				case white:
					color[child] = gray
					parent[child] = f.node
					stack = append(stack, frame{node: child})
				case gray:
					// Back edge f.node→child: reconstruct the cycle.
					cyc = []uint32{child}
					for v := f.node; ; v = parent[v] {
						cyc = append(cyc, v)
						if v == child {
							break
						}
					}
					slices.Reverse(cyc)
					return
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	})
	return cyc
}

// HasCycle reports whether the graph contains a directed cycle.
func (d *Dense) HasCycle() bool { return d.FindCycle() != nil }

// TopoSort returns the node IDs in a topological order (Kahn's algorithm over
// the CSR arrays), or ok=false if the graph is cyclic. Among ready nodes the
// highest ID is taken first.
func (d *Dense) TopoSort() (order []uint32, ok bool) {
	g := d.buildCSR()
	n := len(g.start) - 1
	indeg := make([]int32, n)
	for i := 1; i < len(d.pairs); i += 2 {
		indeg[d.pairs[i]]++
	}
	queue := make([]uint32, 0, d.nodes)
	d.EachNode(func(id uint32) {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	})
	order = make([]uint32, 0, d.nodes)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, t := range g.succ[g.start[v]:g.start[v+1]] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) != d.nodes {
		return nil, false
	}
	return order, true
}

// Reachable reports whether to is reachable from from by a non-empty path.
func (d *Dense) Reachable(from, to uint32) bool {
	g := d.buildCSR()
	n := len(g.start) - 1
	seen := make([]bool, n)
	stack := append([]uint32(nil), g.succ[g.start[from]:g.start[from+1]]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, g.succ[g.start[v]:g.start[v+1]]...)
	}
	return false
}

// DOT writes the graph in Graphviz DOT format: node declarations in
// ascending ID order, edges in insertion order, highlight path filled salmon
// with red edges.
func (d *Dense) DOT(w io.Writer, name string, label func(uint32) string, highlight []uint32) error {
	lit := func(id uint32) string {
		return strconv.Quote(label(id))
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n", name); err != nil {
		return err
	}
	hl := make(map[uint32]bool, len(highlight))
	for _, id := range highlight {
		hl[id] = true
	}
	var werr error
	d.EachNode(func(id uint32) {
		if werr != nil {
			return
		}
		attrs := ""
		if hl[id] {
			attrs = " [style=filled, fillcolor=salmon]"
		}
		_, werr = fmt.Fprintf(w, "  %s%s;\n", lit(id), attrs)
	})
	if werr != nil {
		return werr
	}
	for i := 0; i < len(d.pairs); i += 2 {
		from, to := d.pairs[i], d.pairs[i+1]
		attrs := ""
		if hl[from] && hl[to] {
			attrs = " [color=red, penwidth=2]"
		}
		if _, err := fmt.Fprintf(w, "  %s -> %s%s;\n", lit(from), lit(to), attrs); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
