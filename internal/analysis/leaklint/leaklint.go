// Package leaklint is the goroutine-leak analyzer for the serving and
// audit planes (internal/fleet, internal/gateway, internal/epochlog,
// internal/auditd).
//
// Every goroutine needs a join or cancel path — an unjoined goroutine
// outlives its epoch and leaks, or worse, writes evidence after seal. A
// launch is fine when:
//
//   - the launched body (literal, or the named callee's body through the
//     call graph) calls a .Done() — WaitGroup accounting;
//   - the body references a context.Context (including a context
//     parameter) — cancellable;
//   - the body communicates on a channel shared with the launching
//     function (captured, or passed as the argument bound to a channel
//     parameter) — the collector loop is the join;
//   - the launching function calls Close/Shutdown/Stop/Wait/Kill on an
//     object the body also references — teardown reaches it.
//
// `go f()` through a function value is invisible to the call graph and is
// skipped here (detlint already flags unresolvable launches in the
// verdict-affecting packages).
//
// Suppress with //karousos:leaklint-ok <reason>.
package leaklint

import (
	"go/ast"
	"go/types"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/callgraph"
)

// Packages are the concurrency-heavy planes this analyzer self-scopes to.
var Packages = []string{
	"internal/fleet",
	"internal/gateway",
	"internal/epochlog",
	"internal/auditd",
}

// Analyzer is the leaklint pass.
var Analyzer = &analysis.Analyzer{
	Name: "leaklint",
	Doc:  "goroutines need a join or cancel path; suppress with //karousos:leaklint-ok <reason>",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgInScope(pass.Pkg.Path(), Packages) {
		return nil
	}
	g := callgraph.Of(pass.Program)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLeaks(pass, g, fd)
		}
	}
	return nil
}

func checkLeaks(pass *analysis.Pass, g *callgraph.Graph, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(gs.Call.Fun).(type) {
		case *ast.FuncLit:
			if !literalJoinable(pass, gs, fun, fd) {
				pass.Reportf(gs.Pos(), "goroutine has no join or cancel path; add WaitGroup accounting, "+
					"a context, or a collector the launcher waits on")
			}
		default:
			fn := callgraph.StaticCallee(pass.TypesInfo, gs.Call)
			if fn == nil {
				return true // function value: detlint's unresolvable-launch check owns this
			}
			node := g.Node(fn)
			if node == nil {
				return true // body outside the program: nothing to inspect
			}
			if !calleeJoinable(node) {
				pass.Reportf(gs.Pos(), "go launches %s, which has no join or cancel path; give it "+
					"WaitGroup accounting, a context parameter, or a channel the launcher drains", fn.Name())
			}
		}
		return true
	})
}

// literalJoinable applies the OK-rules to a goroutine literal.
func literalJoinable(pass *analysis.Pass, gs *ast.GoStmt, lit *ast.FuncLit, encl *ast.FuncDecl) bool {
	info := pass.TypesInfo
	if bodyHasDoneOrContext(info, lit.Body) {
		return true
	}
	// Channel shared with the launcher: a captured channel object, or a
	// channel parameter whose argument is rooted in the launcher.
	shared := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || shared {
			return !shared
		}
		obj := info.ObjectOf(id)
		if obj == nil || !isChan(obj.Type()) {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			shared = true // captured from outside the literal
			return false
		}
		// A parameter of the literal: substitute the call argument.
		if i := paramIndex(lit, obj); i >= 0 && i < len(gs.Call.Args) {
			if root := rootObj(info, gs.Call.Args[i]); root != nil && root.Pos() < lit.Pos() {
				shared = true
				return false
			}
		}
		return true
	})
	if shared {
		return true
	}
	// Teardown reaches it: the launcher closes/stops an object the body
	// uses.
	return enclosingTeardown(info, encl, lit)
}

// calleeJoinable applies the OK-rules to a named launch's callee.
func calleeJoinable(node *callgraph.Node) bool {
	sig := node.Func.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	info := node.Pkg.TypesInfo
	if bodyHasDoneOrContext(info, node.Decl.Body) {
		return true
	}
	// A worker draining a channel joins when the channel closes.
	drains := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok && isChan(info.TypeOf(r.X)) {
			drains = true
			return false
		}
		return !drains
	})
	return drains
}

// bodyHasDoneOrContext reports whether body calls a .Done() (WaitGroup or
// context) or references any context.Context value.
func bodyHasDoneOrContext(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := info.ObjectOf(n); obj != nil && isContext(obj.Type()) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// teardownNames are launcher-side calls that reach a goroutine's plumbing.
var teardownNames = map[string]bool{
	"Close": true, "Shutdown": true, "Stop": true, "Wait": true, "Kill": true,
}

// enclosingTeardown reports whether encl calls Close/Shutdown/Stop/Wait/
// Kill on an object the literal body also references.
func enclosingTeardown(info *types.Info, encl *ast.FuncDecl, lit *ast.FuncLit) bool {
	bodyObjs := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				bodyObjs[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !teardownNames[sel.Sel.Name] {
			return true
		}
		if root := rootObj(info, sel.X); root != nil && bodyObjs[root] {
			found = true
			return false
		}
		return true
	})
	return found
}

func paramIndex(lit *ast.FuncLit, obj types.Object) int {
	i := 0
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if name.Pos() == obj.Pos() {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
