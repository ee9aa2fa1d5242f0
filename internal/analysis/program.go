package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// ProgramPackage is one loaded package inside a Program. Each package
// carries its own FileSet (the loader type-checks packages independently),
// so positions must always be resolved against the owning package's Fset.
type ProgramPackage struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Program is the whole package set of one karousos-vet run — the scope over
// which interprocedural facts (call graph, dataflow summaries) are built.
// Facts are computed once per Program and shared by every analyzer through
// Fact, so every analyzer over every package pays for one call graph.
type Program struct {
	Packages []*ProgramPackage

	mu    sync.Mutex
	facts map[string]*factEntry
}

// factEntry builds one fact exactly once, outside the program lock, so a
// fact's build function may itself request other facts (the dataflow
// engine asks for the call graph) without deadlocking.
type factEntry struct {
	once sync.Once
	v    any
}

// NewProgram wraps a loaded package set.
func NewProgram(pkgs []*ProgramPackage) *Program {
	return &Program{Packages: pkgs, facts: map[string]*factEntry{}}
}

// Fact returns the cached program-wide fact for key, building it on first
// use. Facts are built once and shared by every analyzer; a build may
// request other facts (different keys only — same-key recursion would
// self-deadlock).
func (p *Program) Fact(key string, build func() any) any {
	p.mu.Lock()
	if p.facts == nil {
		p.facts = map[string]*factEntry{}
	}
	e, ok := p.facts[key]
	if !ok {
		e = &factEntry{}
		p.facts[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// PackageOf returns the program package wrapping pkg, nil if absent.
func (p *Program) PackageOf(pkg *types.Package) *ProgramPackage {
	for _, pp := range p.Packages {
		if pp.Pkg == pkg {
			return pp
		}
	}
	return nil
}
