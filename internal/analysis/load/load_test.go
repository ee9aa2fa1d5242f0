package load

import (
	"go/ast"
	"os"
	"strings"
	"testing"
)

// TestPackagesLoadsModule type-checks a real module package through export
// data, proving the go list -export pipeline works offline.
func TestPackagesLoadsModule(t *testing.T) {
	pkgs, problems, err := PackagesDiag("karousos.dev/karousos/internal/core", "karousos.dev/karousos/internal/verifier")
	if err != nil || len(problems) != 0 {
		t.Fatalf("PackagesDiag: %v %v", err, problems)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
			t.Fatalf("%s: incomplete load", p.PkgPath)
		}
		// Type info must actually be populated: every file has a resolved
		// package-level identifier.
		ids := 0
		for _, f := range p.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.TypesInfo.Uses[id] != nil {
					ids++
				}
				return true
			})
		}
		if ids == 0 {
			t.Fatalf("%s: no resolved identifiers", p.PkgPath)
		}
	}
}

// TestFilesChecksAdHocPackage type-checks an ad-hoc fixture-style package
// that imports both the standard library and a module package.
func TestFilesChecksAdHocPackage(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

import (
	"sort"

	"karousos.dev/karousos/internal/core"
)

func Codes() []core.RejectCode {
	out := []core.RejectCode{core.RejectGraphCycle, core.RejectMalformedAdvice}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
`
	path := dir + "/fixture.go"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Files("fixture", []string{path})
	if err != nil {
		t.Fatalf("Files: %v", err)
	}
	if p.Types.Name() != "fixture" {
		t.Fatalf("package name %q", p.Types.Name())
	}
}

// TestPackagesDiagDegradesBrokenPackages proves one broken package costs
// one Problem while healthy packages in the same run still load: the
// failure modes are a syntax error, a type error, and an import with no
// export data.
func TestPackagesDiagDegradesBrokenPackages(t *testing.T) {
	pkgs, problems, err := PackagesDiag(
		"./internal/analysis/load/testdata/src/badpkg",
		"./internal/analysis/load/testdata/src/typeerr",
		"./internal/analysis/load/testdata/src/missingdep",
		"karousos.dev/karousos/internal/core",
	)
	if err != nil {
		t.Fatalf("PackagesDiag run-level error: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "karousos.dev/karousos/internal/core" {
		t.Fatalf("healthy packages = %v, want just internal/core", pkgPaths(pkgs))
	}
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3: %v", len(problems), problems)
	}
	bySuffix := map[string]string{}
	for _, p := range problems {
		parts := strings.Split(p.PkgPath, "/")
		bySuffix[parts[len(parts)-1]] = p.Err.Error()
	}
	if msg, ok := bySuffix["badpkg"]; !ok || !strings.Contains(msg, "expected") {
		t.Errorf("badpkg problem should carry the parse error, got %q", msg)
	}
	if msg, ok := bySuffix["typeerr"]; !ok || !strings.Contains(msg, "type-checking") {
		t.Errorf("typeerr problem should carry the type error, got %q", msg)
	}
	if msg, ok := bySuffix["missingdep"]; !ok {
		t.Errorf("missingdep problem missing entirely: %v", problems)
	} else if !strings.Contains(msg, "export data") && !strings.Contains(msg, "could not import") && !strings.Contains(msg, "doesnotexist") {
		t.Errorf("missingdep problem should name the unresolvable import, got %q", msg)
	}
}

func pkgPaths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.PkgPath)
	}
	return out
}
