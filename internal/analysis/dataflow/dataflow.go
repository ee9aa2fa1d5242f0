// Package dataflow is the interprocedural taint engine under advicetaint:
// flow-approximate propagation of attacker-chosen values from policy
// sources to policy sinks across function boundaries, over the static call
// graph (internal/analysis/callgraph).
//
// # Model
//
// Taint is a bitmask per variable: bit 0 (SourceBit) marks "derived from a
// policy source", bit i+1 (ParamBit(i)) marks "derived from the enclosing
// function's i-th parameter". Each function gets a Summary computed to a
// fixpoint over the call graph:
//
//   - Return: the mask reaching any return value when the function runs
//     with every parameter tainted by its own bit — so a caller knows
//     whether g(x) hands back x's taint (ParamBit) or mints fresh taint
//     from a source inside g (SourceBit);
//   - ParamToSink[i]: parameter i reaches a policy sink unclamped, either
//     directly or through further calls.
//
// Check then replays one function and reports a Finding wherever a
// SourceBit value reaches a sink — locally, or as an argument to a callee
// whose ParamToSink says the value keeps flowing to a sink downstream.
//
// # Approximations (see DESIGN.md §17)
//
// Flow is replayed in source order with no branch joins: a clamp anywhere
// before the sink in source order clears the taint. Calls the graph cannot
// resolve (function values, interface methods) launder their arguments and
// return clean values. The escape hatch for the residue is a reviewed
// //karousos: directive.
package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/callgraph"
)

// Mask is a taint bitmask: SourceBit plus one bit per parameter.
type Mask uint64

// SourceBit marks a value derived from a policy source.
const SourceBit Mask = 1

// maxParams bounds the parameter bits a Mask can carry; parameters past
// the bound are untracked (never tainted) — no real function here comes
// close.
const maxParams = 62

// ParamBit is the mask bit of parameter i; 0 when i is untrackable.
func ParamBit(i int) Mask {
	if i < 0 || i >= maxParams {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// Sink is one sensitive expression inside a call: Expr must not be
// tainted, What names the sink in diagnostics ("make size", "file path").
type Sink struct {
	Expr ast.Expr
	What string
}

// Policy supplies the source/sanitizer/sink vocabulary of one analyzer.
type Policy struct {
	// IsSource reports whether call mints an attacker-chosen value.
	IsSource func(info *types.Info, call *ast.CallExpr) bool
	// IsSanitizer reports whether call clamps its identifier arguments
	// (their taint is cleared).
	IsSanitizer func(info *types.Info, call *ast.CallExpr) bool
	// CallSinks returns the sensitive argument expressions of call.
	CallSinks func(info *types.Info, call *ast.CallExpr) []Sink
	// SanitizeCompare, when set, makes a relational comparison against a
	// non-constant bound (or a constant ≤ MaxConstBound) clear the taint
	// of the compared expression — the `if n > len(rest) { reject }`
	// clamp idiom.
	SanitizeCompare bool
	MaxConstBound   int64
	// LoopBound, when non-empty, makes a tainted for-loop bound a sink
	// with this name.
	LoopBound string
	// Branch, when non-nil, nominates if-statements whose condition must
	// not be tainted (returns the sink name, "" to skip).
	Branch func(info *types.Info, ifStmt *ast.IfStmt) string
}

// Summary is one function's interprocedural taint behavior.
type Summary struct {
	Return      Mask
	ParamToSink []bool
}

// Finding is one source-to-sink flow inside a checked function.
type Finding struct {
	Pos  token.Pos
	What string
	// Callee names the called function when the sink is downstream (the
	// flagged expression is an argument whose taint reaches a sink inside
	// Callee); empty for a sink in the checked function itself.
	Callee string
}

// Engine holds the program, its call graph, and the fixpoint summaries for
// one policy.
type Engine struct {
	Prog  *analysis.Program
	Graph *callgraph.Graph
	pol   Policy
	sums  map[string]*Summary
}

// New builds the engine: call graph (shared program fact) plus taint
// summaries for every function in the program, iterated to a fixpoint.
func New(prog *analysis.Program, pol Policy) *Engine {
	e := &Engine{Prog: prog, Graph: callgraph.Of(prog), pol: pol, sums: map[string]*Summary{}}
	for key, n := range e.Graph.Nodes {
		e.sums[key] = &Summary{ParamToSink: make([]bool, numParams(n.Func))}
	}
	// Masks and ParamToSink only ever grow, so iterate until stable; the
	// bound is a backstop against a pathological graph, not a tuning knob.
	for pass := 0; pass < 32; pass++ {
		changed := false
		for key, n := range e.Graph.Nodes {
			sum := e.summarize(n)
			old := e.sums[key]
			if sum.Return&^old.Return != 0 {
				old.Return |= sum.Return
				changed = true
			}
			for i, s := range sum.ParamToSink {
				if s && !old.ParamToSink[i] {
					old.ParamToSink[i] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return e
}

// Summary returns fn's fixpoint summary, nil when fn's body is outside the
// program.
func (e *Engine) Summary(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return e.sums[fn.FullName()]
}

// Check replays fd and returns every source-to-sink flow in it.
func (e *Engine) Check(pp *analysis.ProgramPackage, fd *ast.FuncDecl) []Finding {
	w := e.newWalker(pp, fd, true)
	w.walk(fd.Body)
	return w.findings
}

// summarize computes one function's summary from the current fixpoint
// state: parameters run pre-tainted with their own bits.
func (e *Engine) summarize(n *callgraph.Node) *Summary {
	w := e.newWalker(n.Pkg, n.Decl, false)
	w.walk(n.Decl.Body)
	return &Summary{Return: w.ret, ParamToSink: w.paramSink}
}

// walker replays one function body in source order.
type walker struct {
	e       *Engine
	pp      *analysis.ProgramPackage
	collect bool // record findings (Check) vs summarize only

	taint     map[types.Object]Mask
	params    []*types.Var
	ret       Mask
	paramSink []bool
	findings  []Finding
}

func (e *Engine) newWalker(pp *analysis.ProgramPackage, fd *ast.FuncDecl, collect bool) *walker {
	w := &walker{e: e, pp: pp, collect: collect, taint: map[types.Object]Mask{}}
	fn, _ := pp.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn != nil {
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			w.params = append(w.params, p)
			if !collect {
				w.taint[p] = ParamBit(i)
			}
		}
	}
	w.paramSink = make([]bool, len(w.params))
	return w
}

func (w *walker) info() *types.Info { return w.pp.TypesInfo }

func (w *walker) walk(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.IfStmt:
			if w.e.pol.Branch != nil {
				if what := w.e.pol.Branch(w.info(), n); what != "" {
					w.sinkMask(w.mask(n.Cond), n.Cond.Pos(), what, "")
				}
			}
			if w.e.pol.SanitizeCompare {
				w.sanitizeCond(n.Cond)
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				if w.e.pol.LoopBound != "" {
					w.loopBoundSink(n)
				}
				if w.e.pol.SanitizeCompare {
					w.sanitizeCond(n.Cond)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				w.ret |= w.mask(r)
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// assign taints LHS objects with their RHS masks (multi-value RHS spreads
// the single mask).
func (w *walker) assign(a *ast.AssignStmt) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		m := w.mask(a.Rhs[0])
		for _, l := range a.Lhs {
			w.set(l, m)
		}
		return
	}
	for i, l := range a.Lhs {
		if i < len(a.Rhs) {
			w.set(l, w.mask(a.Rhs[i]))
		}
	}
}

func (w *walker) set(lhs ast.Expr, m Mask) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.info().ObjectOf(id)
	if obj == nil {
		return
	}
	if m == 0 {
		delete(w.taint, obj)
	} else {
		w.taint[obj] = m
	}
}

// mask computes the taint mask of an expression: identifiers contribute
// their tracked mask, source calls contribute SourceBit, resolved calls
// contribute their summary applied to the argument masks, unresolved
// calls launder.
func (w *walker) mask(e ast.Expr) Mask {
	var m Mask
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			m |= w.callMask(n)
			return false
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := w.info().ObjectOf(n); obj != nil {
				m |= w.taint[obj]
			}
		}
		return true
	})
	return m
}

func (w *walker) callMask(call *ast.CallExpr) Mask {
	if w.e.pol.IsSource != nil && w.e.pol.IsSource(w.info(), call) {
		return SourceBit
	}
	// A sanitizer's result is clamped by definition — the policy name is
	// authoritative over whatever its body's summary would forward.
	if w.e.pol.IsSanitizer != nil && w.e.pol.IsSanitizer(w.info(), call) {
		return 0
	}
	// Conversions propagate: uint64(n) is still n.
	if tv, ok := w.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.mask(call.Args[0])
	}
	callee := callgraph.StaticCallee(w.info(), call)
	if callee == nil {
		return 0 // dynamic or builtin: launder (documented approximation)
	}
	sum := w.e.sums[callee.FullName()]
	if sum == nil {
		return 0 // body outside the program: launder
	}
	var m Mask
	if sum.Return&SourceBit != 0 {
		m |= SourceBit
	}
	for i := range numParamsOf(callee) {
		if sum.Return&ParamBit(i) != 0 {
			m |= w.argMask(call, callee, i)
		}
	}
	return m
}

// argMask is the taint mask of the argument bound to callee's parameter i.
func (w *walker) argMask(call *ast.CallExpr, callee *types.Func, i int) Mask {
	sig := callee.Type().(*types.Signature)
	// Method value receiver shifts nothing here: callgraph resolves the
	// selector form, where call.Args aligns with sig.Params.
	if sig.Variadic() && i >= sig.Params().Len()-1 {
		var m Mask
		for j := sig.Params().Len() - 1; j < len(call.Args); j++ {
			m |= w.mask(call.Args[j])
		}
		return m
	}
	if i < len(call.Args) {
		return w.mask(call.Args[i])
	}
	return 0
}

// call handles sanitizer calls, call-argument sinks, and taint flowing
// into callees whose parameters reach sinks downstream.
func (w *walker) call(call *ast.CallExpr) {
	if w.e.pol.IsSanitizer != nil && w.e.pol.IsSanitizer(w.info(), call) {
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				w.set(id, 0)
			}
		}
		return
	}
	if w.e.pol.CallSinks != nil {
		for _, s := range w.e.pol.CallSinks(w.info(), call) {
			w.sinkMask(w.mask(s.Expr), s.Expr.Pos(), s.What, "")
		}
	}
	// Interprocedural sink: an argument whose taint a callee forwards to
	// a sink of its own.
	callee := callgraph.StaticCallee(w.info(), call)
	if callee == nil {
		return
	}
	sum := w.e.sums[callee.FullName()]
	if sum == nil {
		return
	}
	for i, reaches := range sum.ParamToSink {
		if !reaches {
			continue
		}
		w.sinkMask(w.argMask(call, callee, i), call.Pos(), "", callee.Name())
	}
}

// sinkMask records the consequences of mask m reaching a sink: a finding
// for SourceBit (when collecting), ParamToSink for parameter bits.
func (w *walker) sinkMask(m Mask, pos token.Pos, what, callee string) {
	if m == 0 {
		return
	}
	if m&SourceBit != 0 && w.collect {
		w.findings = append(w.findings, Finding{Pos: pos, What: what, Callee: callee})
	}
	for i := range w.paramSink {
		if m&ParamBit(i) != 0 {
			w.paramSink[i] = true
		}
	}
}

// loopBoundSink flags a for-loop whose bound side is tainted. The operand
// rooted at a variable declared in the loop's own init is the induction
// variable, not the bound.
func (w *walker) loopBoundSink(f *ast.ForStmt) {
	cmp, ok := f.Cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch cmp.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return
	}
	initVars := map[types.Object]bool{}
	if init, ok := f.Init.(*ast.AssignStmt); ok {
		for _, l := range init.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if obj := w.info().ObjectOf(id); obj != nil {
					initVars[obj] = true
				}
			}
		}
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && initVars[w.info().ObjectOf(id)] {
			continue
		}
		w.sinkMask(w.mask(side), side.Pos(), w.e.pol.LoopBound, "")
	}
}

// sanitizeCond clears taint for expressions relationally compared against
// an acceptable bound, walking through && and || — the codec's clamp
// idiom, applied to whole masks.
func (w *walker) sanitizeCond(cond ast.Expr) {
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND, token.LOR:
			w.sanitizeCond(c.X)
			w.sanitizeCond(c.Y)
		case token.GTR, token.GEQ, token.LSS, token.LEQ:
			w.sanitizeSide(c.X, c.Y)
			w.sanitizeSide(c.Y, c.X)
		}
	case *ast.ParenExpr:
		w.sanitizeCond(c.X)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			w.sanitizeCond(c.X)
		}
	}
}

func (w *walker) sanitizeSide(candidate, bound ast.Expr) {
	if tv, ok := w.info().Types[bound]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); !exact || v <= 0 || v > w.e.pol.MaxConstBound {
			return
		}
	}
	ast.Inspect(candidate, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			w.set(id, 0)
		}
		return true
	})
}

func numParams(fn *types.Func) int {
	if fn == nil {
		return 0
	}
	return numParamsOf(fn)
}

func numParamsOf(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	return sig.Params().Len()
}
