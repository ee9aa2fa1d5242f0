// Package load is the package loader under karousos-vet and the analysis
// tests: a minimal, stdlib-only stand-in for golang.org/x/tools/go/packages
// (which the build container cannot fetch).
//
// It shells out to `go list -export -json -deps` once to learn every
// package's source files and compiled export data, then parses and
// type-checks the requested packages with go/parser + go/types, resolving
// imports (standard library and module-internal alike) through the gc
// export-data importer. Only non-test Go files are loaded: the invariants
// the analyzers prove are about the shipped auditor, and test randomness is
// governed separately (seeded and logged, see DESIGN.md §12).
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listEntry is the subset of `go list -json` output we consume.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Problem is one package that failed to load — a build error, a type
// error, or missing export data. Loading continues past it so one broken
// package degrades to one diagnostic instead of aborting the whole vet
// run.
type Problem struct {
	PkgPath string
	Err     error
}

func (p Problem) Error() string { return fmt.Sprintf("%s: %v", p.PkgPath, p.Err) }

// snapshot is the module's resolved export-data universe.
type snapshot struct {
	root    string            // module root directory
	exports map[string]string // import path -> export data file
}

var (
	depOnce sync.Once
	depErr  error
	depSnap *snapshot // built once, shared process-wide
)

// moduleRoot locates the directory of the enclosing go.mod, so the loader
// works no matter which package directory the test binary runs in.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("load: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("load: not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// depExports returns (building once per process) the export-data map for
// this module and its transitive dependencies, compiling what is stale.
// With -e, a broken package yields an entry carrying its Error and no
// export data — the breakage surfaces later as that package's Problem,
// not a load abort.
func depExports() (*snapshot, error) {
	depOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			depErr = err
			return
		}
		es, err := goList(root, "-export", "-deps", "./...")
		if err != nil {
			depErr = err
			return
		}
		depSnap = &snapshot{root: root, exports: make(map[string]string)}
		for _, e := range es {
			if e.Export != "" {
				depSnap.exports[e.ImportPath] = e.Export
			}
		}
	})
	return depSnap, depErr
}

// goList runs `go list -e -json <args>` in dir and decodes the JSON stream.
func goList(dir string, args ...string) ([]*listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var es []*listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		es = append(es, &e)
	}
	return es, nil
}

// newImporter returns a types.Importer that resolves every import path
// through the compiled export data `go list -export` produced.
func newImporter(fset *token.FileSet, exp map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exp[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newInfo allocates a fully-populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// PackagesDiag loads the packages matched by patterns, collecting broken
// packages as Problems instead of aborting: a syntax error, a type error,
// or missing export data costs that one package. The returned error is
// reserved for run-level failures (no module, go list itself failing).
func PackagesDiag(patterns ...string) ([]*Package, []Problem, error) {
	snap, err := depExports()
	if err != nil {
		return nil, nil, err
	}
	return snap.load(patterns)
}

// load lists the targets and loads each one, one Problem per broken
// package.
func (s *snapshot) load(patterns []string) ([]*Package, []Problem, error) {
	targets, err := goList(s.root, patterns...)
	if err != nil {
		return nil, nil, err
	}
	var out []*Package
	var problems []Problem
	for _, t := range targets {
		if t.Standard || t.ImportPath == "" {
			continue
		}
		if len(t.GoFiles) == 0 {
			// A listing error with no files at all (unresolvable pattern
			// element, package with no buildable sources) is still worth a
			// diagnostic when go list says so.
			if t.Error != nil {
				problems = append(problems, Problem{PkgPath: t.ImportPath, Err: fmt.Errorf("%s", t.Error.Err)})
			}
			continue
		}
		pkg, err := s.loadOne(t)
		if err != nil {
			problems = append(problems, Problem{PkgPath: t.ImportPath, Err: err})
			continue
		}
		out = append(out, pkg)
	}
	return out, problems, nil
}

// loadOne parses and type-checks a single listed package.
func (s *snapshot) loadOne(t *listEntry) (*Package, error) {
	paths := make([]string, len(t.GoFiles))
	for i, name := range t.GoFiles {
		paths[i] = filepath.Join(t.Dir, name)
	}
	return parseAndCheck(t.ImportPath, paths, s.exports)
}

// Files parses and type-checks an ad-hoc package from explicit .go files —
// the analysistest fixture path. The package may import the standard library
// and any package of this module; pkgPath becomes its import path (fixture
// convention: a bare name with no slash).
func Files(pkgPath string, filenames []string) (*Package, error) {
	snap, err := depExports()
	if err != nil {
		return nil, err
	}
	p, err := parseAndCheck(pkgPath, filenames, snap.exports)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", pkgPath, err)
	}
	return p, nil
}

// parseAndCheck parses filenames and type-checks them as package pkgPath,
// resolving imports through the export data in exp.
func parseAndCheck(pkgPath string, filenames []string, exp map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, full := range filenames {
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := check(fset, pkgPath, files, exp)
	if err != nil {
		return nil, fmt.Errorf("type-checking: %w", err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Syntax: files, Types: pkg, TypesInfo: info}, nil
}

func check(fset *token.FileSet, pkgPath string, files []*ast.File, exp map[string]string) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer: newImporter(fset, exp),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := newInfo()
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
