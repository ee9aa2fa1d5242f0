package callgraph

import (
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/load"
)

func progFromSource(t *testing.T, src string) *analysis.Program {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := load.Files("cgfixture", []string{path})
	if err != nil {
		t.Fatalf("load.Files: %v", err)
	}
	return analysis.NewProgram([]*analysis.ProgramPackage{{
		PkgPath: p.PkgPath, Fset: p.Fset, Files: p.Syntax,
		Pkg: p.Types, TypesInfo: p.TypesInfo,
	}})
}

const src = `package cgfixture

import "os"

type T struct{ f *os.File }

func (t *T) sync() error { return t.f.Sync() }

func top(t *T) error { return t.sync() }

func viaValue(fn func() error) error { return fn() } // dynamic

func leaf() {}

func caller() { leaf() }
`

func TestBuildResolvesStaticCalls(t *testing.T) {
	prog := progFromSource(t, src)
	g := Of(prog)
	if again := Of(prog); again != g {
		t.Error("Of must cache the graph as a program fact")
	}
	if len(g.Nodes) != 5 {
		t.Errorf("got %d nodes, want one per declaration with a body (5): %v", len(g.Nodes), keys(g))
	}

	// calls returns the callee node key of every call site in key's body,
	// "" for a resolved callee outside the program, "dynamic" when
	// StaticCallee cannot resolve it.
	calls := func(key string) []string {
		t.Helper()
		n := g.Nodes[key]
		if n == nil {
			t.Fatalf("no node for %q in %v", key, keys(g))
		}
		var out []string
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := StaticCallee(n.Pkg.TypesInfo, call); {
			case fn == nil:
				out = append(out, "dynamic")
			case g.Node(fn) == nil:
				out = append(out, "")
			default:
				out = append(out, fn.FullName())
			}
			return true
		})
		return out
	}

	check := func(key string, want ...string) {
		t.Helper()
		if got := calls(key); !reflect.DeepEqual(got, want) {
			t.Errorf("%s calls %q, want %q", key, got, want)
		}
	}
	check("cgfixture.top", "(*cgfixture.T).sync")
	// t.f.Sync() resolves to (*os.File).Sync — a real static callee whose
	// body is outside the program (no node).
	check("(*cgfixture.T).sync", "")
	check("cgfixture.viaValue", "dynamic")
	check("cgfixture.caller", "cgfixture.leaf")
	check("cgfixture.leaf")
}

// TestStaticCalleeDynamicAndGeneric: an interface method call, a function
// value, a conversion, a builtin and an element of a func slice resolve to
// nil; a call of a generic instantiation, with its type arguments written
// out or inferred, resolves to the generic declaration's node.
func TestStaticCalleeDynamicAndGeneric(t *testing.T) {
	prog := progFromSource(t, `package cgfixture

type I interface{ M() }

type S struct{}

func (S) M() {}

func id[T any](x T) T { return x }

func uses(i I, s S, fn func(), fns []func()) {
	i.M()
	s.M()
	fn()
	_ = int64(1)
	_ = len("x")
	_ = id[int](1)
	_ = id("y")
	fns[0]()
}
`)
	g := Of(prog)
	n := g.Nodes["cgfixture.uses"]
	if n == nil {
		t.Fatalf("no node for cgfixture.uses in %v", keys(g))
	}
	var got []string
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if node := g.Node(StaticCallee(n.Pkg.TypesInfo, call)); node != nil {
			got = append(got, node.Func.FullName())
		} else {
			got = append(got, "nil")
		}
		return true
	})
	want := []string{"nil", "(cgfixture.S).M", "nil", "nil", "nil", "cgfixture.id", "cgfixture.id", "nil"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("callees %q, want %q", got, want)
	}
}

func keys(g *Graph) []string {
	var out []string
	for k := range g.Nodes {
		out = append(out, k)
	}
	return out
}
