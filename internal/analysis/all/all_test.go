package all

import (
	"testing"

	"karousos.dev/karousos/internal/analysis"
)

// TestRegistryMatchesAnalyzers proves the directive registry and the
// analyzer list agree in both directions: every check name an analyzer
// claims is registered to it, and every registered check is claimed by an
// analyzer in Analyzers. A mismatch means a //karousos:<check>-ok
// directive would be accepted with no analyzer honoring it (or vice
// versa).
func TestRegistryMatchesAnalyzers(t *testing.T) {
	claimed := map[string]string{}
	for _, a := range Analyzers {
		checks := a.Checks
		if len(checks) == 0 {
			checks = []string{a.Name}
		}
		for _, c := range checks {
			if prev, dup := claimed[c]; dup {
				t.Errorf("check %q claimed by both %s and %s", c, prev, a.Name)
			}
			claimed[c] = a.Name
			owner, ok := analysis.AnalyzerForCheck(c)
			if !ok {
				t.Errorf("analyzer %s's check %q is not in the registry (missing analysis.Register in init?)", a.Name, c)
			} else if owner != a.Name {
				t.Errorf("check %q registered to %s but claimed by %s", c, owner, a.Name)
			}
		}
	}
	for _, c := range analysis.KnownChecks() {
		if c == "directive" {
			continue // the directive checker's own diagnostics
		}
		if _, ok := claimed[c]; !ok {
			t.Errorf("registry knows check %q but no analyzer in all.Analyzers claims it", c)
		}
	}
}

// TestFiveAnalyzers pins the analyzer census: three intraprocedural passes
// plus advicetaint and conclint.
func TestFiveAnalyzers(t *testing.T) {
	if len(Analyzers) != 5 {
		t.Fatalf("got %d analyzers, want 5", len(Analyzers))
	}
	want := map[string]bool{
		"detlint": true, "errladder": true, "rejectcode": true,
		"advicetaint": true, "conclint": true,
	}
	for _, a := range Analyzers {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("missing analyzer %q", name)
	}
}
