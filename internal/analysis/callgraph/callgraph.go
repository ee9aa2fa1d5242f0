// Package callgraph is the static call graph of an analysis.Program — the
// shared substrate of the interprocedural analyzers (advicetaint via
// dataflow, leaklint) and of detlint's named-goroutine resolution.
//
// The graph is kept as its two halves: Nodes indexes every function
// declaration with a body, and StaticCallee resolves one call site to its
// target, so a call's edge is g.Node(StaticCallee(info, call)). Only
// statically resolvable callees have edges: direct function calls,
// qualified package calls, and method calls on concrete receivers. Calls
// through function values, interface methods, and reflection resolve to
// nil, and every client must treat an unresolved call as "anything may
// happen" in whichever direction keeps its own check sound (taint: result
// is clean; leaks: body unseen).
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
	// Pkg is the program package holding the declaration; positions inside
	// Decl resolve against Pkg.Fset only.
	Pkg  *analysis.ProgramPackage
	Decl *ast.FuncDecl
	Func *types.Func
}

// Graph is the program's static call graph.
type Graph struct {
	// Nodes maps types.Func.FullName() to the declaring node.
	Nodes map[string]*Node
}

// Of returns the program's call graph, building it once and caching it as
// a program fact shared by every analyzer.
func Of(prog *analysis.Program) *Graph {
	return prog.Fact("callgraph", func() any { return build(prog) }).(*Graph)
}

// build indexes every function declaration in the program.
func build(prog *analysis.Program) *Graph {
	g := &Graph{Nodes: map[string]*Node{}}
	for _, pp := range prog.Packages {
		for _, f := range pp.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pp.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					g.Nodes[fn.FullName()] = &Node{Pkg: pp, Decl: fd, Func: fn}
				}
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

// StaticCallee resolves a call expression to the *types.Func it must
// invoke, nil when the target is dynamic (function value, interface
// method) or not a function call at all (conversion, builtin).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Explicit type arguments (f[int](x), pkg.F[K, V](x)) call the same
	// function; an index into a slice or map of funcs is left to resolve
	// to nil below.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
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
