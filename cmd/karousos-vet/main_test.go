package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runVet drives run() and returns (exit, stdout, stderr).
func runVet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestListShowsAllAnalyzers pins the analyzer census the driver exposes:
// all seven, with conclint's two check names spelled out.
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
	if len(lines) != 6 {
		t.Fatalf("got %d analyzers listed, want 6:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "conclint (leaklint, locklint)") {
		t.Errorf("-list should spell out conclint's check names:\n%s", out)
	}
}

// TestUnknownCheckIsDriverError pins exit 2 and the known-checks hint.
func TestUnknownCheckIsDriverError(t *testing.T) {
	code, _, errb := runVet(t, "-checks", "nosuchcheck", "karousos.dev/karousos/internal/core")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "known checks") {
		t.Errorf("error should list the known checks, got %q", errb)
	}
}

// TestCheckNameSelectsOwningAnalyzer: -checks locklint must resolve to
// conclint and vet cleanly over an in-scope, clean package.
func TestCheckNameSelectsOwningAnalyzer(t *testing.T) {
	code, out, errb := runVet(t, "-checks", "locklint", "karousos.dev/karousos/internal/fleet")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
}

// TestJSONSuppressedFindingsVisible pins the -json contract over the real
// tree: epochlog's reviewed hold-across-fsync suppressions appear with
// suppressed=true, and because every finding is suppressed the exit is 0.
func TestJSONSuppressedFindingsVisible(t *testing.T) {
	code, out, errb := runVet(t, "-json", "karousos.dev/karousos/internal/epochlog")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	var ds []jsonDiag
	if err := json.Unmarshal([]byte(out), &ds); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	locklint := 0
	for _, d := range ds {
		if !d.Suppressed {
			t.Errorf("unsuppressed finding on an exit-0 run: %+v", d)
		}
		if d.Check == "locklint" {
			locklint++
			if d.Analyzer != "conclint" {
				t.Errorf("locklint finding should belong to conclint, got %q", d.Analyzer)
			}
			if d.Pos == "" || !strings.Contains(d.Message, "holding") {
				t.Errorf("locklint diagnostic incomplete: %+v", d)
			}
		}
	}
	if locklint == 0 {
		t.Error("epochlog's reviewed locklint suppressions should be visible under -json")
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
