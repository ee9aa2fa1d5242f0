package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/analysis/all"
)

// runVet drives run() and returns (exit, stdout, stderr).
func runVet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestListShowsAllAnalyzers pins what the driver exposes: every analyzer,
// one line each, led by the analyzer's name.
func TestListShowsAllAnalyzers(t *testing.T) {
	code, out, errb := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(all.Analyzers) {
		t.Fatalf("got %d analyzers listed, want %d:\n%s", len(lines), len(all.Analyzers), out)
	}
	for i, a := range all.Analyzers {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != a.Name {
			t.Errorf("-list line %d = %q, want it led by %q", i, lines[i], a.Name)
		}
	}
}

// TestFlagErrorIsDriverError pins exit 2 for a flag the driver does not
// know, such as the retired -checks subset selector: a CI line that still
// passes it fails loudly instead of vetting with every analyzer unasked.
func TestFlagErrorIsDriverError(t *testing.T) {
	code, out, errb := runVet(t, "-checks", "detlint", "karousos.dev/karousos/internal/core")
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(errb, "flag provided but not defined: -checks") {
		t.Errorf("stderr should name the unknown flag, got %q", errb)
	}
}

// TestJSONSuppressedFindingsVisible pins the -json contract over the real
// tree: auditd's three reviewed detlint suppressions (the Status latency
// metric's two clock reads and the sharded poll loop's select) appear with
// suppressed=true, and because every finding is suppressed the exit is 0.
func TestJSONSuppressedFindingsVisible(t *testing.T) {
	code, out, errb := runVet(t, "-json", "karousos.dev/karousos/internal/auditd")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	var ds []jsonDiag
	if err := json.Unmarshal([]byte(out), &ds); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	detlint := 0
	for _, d := range ds {
		if !d.Suppressed {
			t.Errorf("unsuppressed finding on an exit-0 run: %+v", d)
		}
		if d.Analyzer == "detlint" {
			detlint++
			if d.Pos == "" || d.Message == "" {
				t.Errorf("detlint diagnostic incomplete: %+v", d)
			}
		}
	}
	if detlint != 3 {
		t.Errorf("got %d detlint suppressions under -json, want auditd's 3:\n%s", detlint, out)
	}
}

// TestBrokenPackageDegradesToLoadDiagnostic: a type-error package costs
// one [load] line and exit 1, while the healthy package still vets.
func TestBrokenPackageDegradesToLoadDiagnostic(t *testing.T) {
	code, out, errb := runVet(t,
		"./internal/analysis/load/testdata/src/typeerr",
		"karousos.dev/karousos/internal/core")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "[load]") || !strings.Contains(out, "typeerr") {
		t.Errorf("broken package should surface as a [load] diagnostic naming it, got:\n%s", out)
	}
}

// TestUnusedDirective: a well-formed directive that suppressed nothing is
// itself a finding.
func TestUnusedDirective(t *testing.T) {
	const want = "a.go:7:11: [directive] karousos:errladder-ok directive suppresses no finding"
	code, out, errb := runVet(t, "./cmd/karousos-vet/testdata/src/unuseddirective")
	if code != 1 || !strings.Contains(out, want) {
		t.Errorf("exit %d, want 1 with %q\nstdout: %s\nstderr: %s", code, want, out, errb)
	}
}
