// Package callgraph builds the static call graph of an analysis.Program —
// the shared substrate of the interprocedural analyzers (advicetaint,
// conclint) and of detlint's named-goroutine resolution.
//
// The graph is edge-per-call-site over statically resolvable callees:
// direct function calls, qualified package calls, and method calls on
// concrete receivers. Calls through function values, interface methods,
// and reflection are not resolved; each node counts them (Dynamic), and
// every client must treat an unresolved call as "anything may happen" in
// whichever direction keeps its own check sound (taint: result is clean;
// reachability: target unseen).
// These caveats are documented per analyzer in DESIGN.md §17.
//
// Nodes are keyed by types.Func.FullName() (e.g.
// "(*karousos.dev/karousos/internal/epochlog.Log).committer"), which is
// stable across packages even though the loader type-checks each package
// with a private FileSet: a function seen from source and the same
// function seen through export data key identically.
package callgraph

import (
	"go/ast"
	"go/types"

	"karousos.dev/karousos/internal/analysis"
)

// Node is one function declaration with a body somewhere in the program.
type Node struct {
	// Key is types.Func.FullName().
	Key string
	// Pkg is the program package holding the declaration; positions inside
	// Decl resolve against Pkg.Fset only.
	Pkg  *analysis.ProgramPackage
	Decl *ast.FuncDecl
	Func *types.Func
	// Calls are the statically resolved call sites in Decl's body,
	// including those inside nested function literals.
	Calls []Edge
	// Sites are ALL call expressions in the body — resolved, dynamic, and
	// interface-dispatched alike (conversions and builtins excluded).
	// Matchers that recognize a call by shape (an interface fsync, a
	// selector name) must scan Sites: an unresolved call has no edge.
	Sites []*ast.CallExpr
	// Dynamic counts call sites in the body that could not be resolved
	// (function values, interface methods).
	Dynamic int
}

// Edge is one resolved call site.
type Edge struct {
	// Site is the call expression, positioned in the caller's Fset.
	Site *ast.CallExpr
	// Callee is the target's key. The target may have no Node when its
	// body is outside the program (standard library, export-data-only).
	Callee string
	// Fn is the resolved callee object as seen from the caller's package.
	Fn *types.Func
}

// Graph is the program's static call graph.
type Graph struct {
	Nodes map[string]*Node
	// callers is the reverse adjacency: callee key -> caller keys.
	callers map[string][]string
}

// Of returns the program's call graph, building it once and caching it as
// a program fact shared by every analyzer.
func Of(prog *analysis.Program) *Graph {
	return prog.Fact("callgraph", func() any { return Build(prog) }).(*Graph)
}

// Build constructs the call graph over every function declaration in the
// program.
func Build(prog *analysis.Program) *Graph {
	g := &Graph{Nodes: map[string]*Node{}, callers: map[string][]string{}}
	for _, pp := range prog.Packages {
		for _, f := range pp.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pp.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Key: fn.FullName(), Pkg: pp, Decl: fd, Func: fn}
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := StaticCallee(pp.TypesInfo, call)
					switch {
					case callee != nil:
						key := callee.FullName()
						n.Calls = append(n.Calls, Edge{Site: call, Callee: key, Fn: callee})
						g.callers[key] = append(g.callers[key], n.Key)
						n.Sites = append(n.Sites, call)
					case !isNonCall(pp.TypesInfo, call):
						n.Dynamic++
						n.Sites = append(n.Sites, call)
					}
					return true
				})
				g.Nodes[n.Key] = n
			}
		}
	}
	return g
}

// Node returns the graph node declaring fn, nil when fn's body is outside
// the program.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn.FullName()]
}

// Callers returns the nodes containing a resolved call to key.
func (g *Graph) Callers(key string) []*Node {
	var out []*Node
	seen := map[string]bool{}
	for _, ck := range g.callers[key] {
		if seen[ck] {
			continue
		}
		seen[ck] = true
		if n := g.Nodes[ck]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// TransitiveMatchers computes the set of node keys from which a call site
// matching direct is reachable through resolved edges: a node matches if
// direct reports true for one of its own call sites, or if it calls a
// matching node. This is the reachability fact under locklint's "holds a
// lock across blocking I/O". The direct matcher is run over Sites — every call
// expression including dynamic and interface-dispatched ones — so a
// shape-based matcher (an interface fsync) still fires where no edge
// exists; only the transitive PROPAGATION is limited to resolved edges. A
// check needing the opposite default must treat Node.Dynamic itself as a
// finding.
func (g *Graph) TransitiveMatchers(direct func(pkg *analysis.ProgramPackage, call *ast.CallExpr) bool) map[string]bool {
	matched := map[string]bool{}
	var queue []string
	for key, n := range g.Nodes {
		for _, site := range n.Sites {
			if direct(n.Pkg, site) {
				matched[key] = true
				queue = append(queue, key)
				break
			}
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, ck := range g.callers[key] {
			if !matched[ck] {
				matched[ck] = true
				queue = append(queue, ck)
			}
		}
	}
	return matched
}

// StaticCallee resolves a call expression to the *types.Func it must
// invoke, nil when the target is dynamic (function value, interface
// method) or not a function call at all (conversion, builtin).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return origin(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// A method on an interface value dispatches dynamically.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return origin(fn)
		}
		// Qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return origin(fn)
		}
	}
	return nil
}

// origin normalizes generic instantiations to their declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// isNonCall reports whether call is a conversion or a builtin — call
// expressions that never transfer control.
func isNonCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok {
			return true
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}
