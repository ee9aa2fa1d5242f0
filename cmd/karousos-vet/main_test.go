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

// TestListShowsAllAnalyzers pins the analyzer census the driver exposes:
// all five, one line each, led by the analyzer's name.
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
	if len(lines) != 5 {
		t.Fatalf("got %d analyzers listed, want 5:\n%s", len(lines), out)
	}
	for i, a := range all.Analyzers {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != a.Name {
			t.Errorf("-list line %d = %q, want it led by %q", i, lines[i], a.Name)
		}
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

// TestCheckNameSelectsOwningAnalyzer: -checks runs only the analyzers it
// names. Over auditd, -checks detlint reports the three detlint
// suppressions and nothing else; -checks errladder reports none of them.
func TestCheckNameSelectsOwningAnalyzer(t *testing.T) {
	for _, c := range []struct {
		check       string
		wantDetlint int
	}{{"detlint", 3}, {"errladder", 0}} {
		code, out, errb := runVet(t, "-json", "-checks", c.check, "karousos.dev/karousos/internal/auditd")
		if code != 0 {
			t.Fatalf("-checks %s: exit %d\nstdout: %s\nstderr: %s", c.check, code, out, errb)
		}
		var ds []jsonDiag
		if err := json.Unmarshal([]byte(out), &ds); err != nil {
			t.Fatalf("-checks %s: -json output is not a JSON array: %v\n%s", c.check, err, out)
		}
		detlint := 0
		for _, d := range ds {
			if d.Analyzer != c.check {
				t.Errorf("-checks %s reported a %s finding: %+v", c.check, d.Analyzer, d)
			}
			if d.Analyzer == "detlint" {
				detlint++
			}
		}
		if detlint != c.wantDetlint {
			t.Errorf("-checks %s: got %d detlint findings, want %d:\n%s", c.check, detlint, c.wantDetlint, out)
		}
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

// TestUnusedDirective: a run of every analyzer reports a well-formed
// directive that suppressed nothing; a -checks subset cannot tell, so it
// stays quiet.
func TestUnusedDirective(t *testing.T) {
	const pkg = "./cmd/karousos-vet/testdata/src/unuseddirective"
	cases := []struct {
		args     []string
		wantExit int
		wantOut  string
	}{
		{[]string{pkg}, 1, "a.go:7:11: [directive] karousos:errladder-ok directive suppresses no finding"},
		{[]string{"-checks", "errladder", pkg}, 0, ""},
	}
	for _, c := range cases {
		code, out, errb := runVet(t, c.args...)
		if code != c.wantExit || !strings.Contains(out, c.wantOut) {
			t.Errorf("karousos-vet %v: exit %d, want %d with %q\nstdout: %s\nstderr: %s",
				c.args, code, c.wantExit, c.wantOut, out, errb)
		}
	}
}
