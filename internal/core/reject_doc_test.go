package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRejectCodeRegistry pins the contract the CLI and the docs rely on:
// every code has a stable String name, the AllRejectCodes registry has no
// duplicates and lists every RejectCode constant declared in reject.go, and
// README's reason-code table stays in lockstep with the registry — in both
// directions.
func TestRejectCodeRegistry(t *testing.T) {
	codes := AllRejectCodes()
	seen := map[RejectCode]bool{}
	for _, c := range codes {
		if c.String() == "" || c.String() == "<uncoded>" {
			t.Errorf("code %q has no String name", string(c))
		}
		if c.String() != string(c) {
			t.Errorf("String() of %q drifted to %q", string(c), c.String())
		}
		if seen[c] {
			t.Errorf("duplicate code %s in AllRejectCodes", c)
		}
		seen[c] = true
	}
	if RejectCode("").String() != "<uncoded>" {
		t.Errorf("empty code String() = %q, want <uncoded>", RejectCode("").String())
	}

	for _, c := range declaredRejectCodes(t) {
		if !seen[c] {
			t.Errorf("reject.go declares code %s that AllRejectCodes does not list", c)
		}
	}

	documented := readmeReasonCodes(t)
	for _, c := range codes {
		if !documented[string(c)] {
			t.Errorf("code %s missing from README's reason-code table", c)
		}
	}
	for name := range documented {
		if !seen[RejectCode(name)] {
			t.Errorf("README documents reason code %q that AllRejectCodes does not define", name)
		}
	}
}

// readmeReasonCodes parses the `| reason code | ... |` table out of the
// repo-root README and returns the backticked code of each row.
func readmeReasonCodes(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "| reason code |") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal("README.md has no `| reason code |` table")
	}
	out := map[string]bool{}
	for _, l := range lines[start+2:] { // skip header and |---|---| rule
		if !strings.HasPrefix(l, "|") {
			break
		}
		cells := strings.SplitN(l, "|", 3)
		if len(cells) < 3 {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if name != "" {
			out[name] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("README reason-code table parsed to zero rows")
	}
	return out
}

// declaredRejectCodes returns the value of every RejectCode constant
// reject.go declares.
func declaredRejectCodes(t *testing.T) []RejectCode {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "reject.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing reject.go: %v", err)
	}
	var out []RejectCode
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "RejectCode" {
				continue
			}
			for _, v := range vs.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatal("a RejectCode constant in reject.go is not a string literal")
				}
				val, _ := strconv.Unquote(lit.Value)
				out = append(out, RejectCode(val))
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("reject.go declares no RejectCode constants")
	}
	return out
}
