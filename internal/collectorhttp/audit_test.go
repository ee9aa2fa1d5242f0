package collectorhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
)

// The tests in this file grade what the collector sealed with the
// auditor, which imports collectorhttp, so they live in the external test
// package.

// postInvoke sends one /invoke and returns the status code.
func postInvoke(t *testing.T, base string, input any) int {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestInvokeRefusedWhenRequestAppendFails: the REQ frame commits while the
// handler runs, so a REQ append that fails past the retry budget is known
// only after execution. The client is refused — never served off the
// record — and, since the application state and the advice now hold a
// request the trace lacks, the epoch is flagged: it seals Degraded and the
// auditor grades it Unauditable, never rejected. Once the disk heals the
// collector serves on.
func TestInvokeRefusedWhenRequestAppendFails(t *testing.T) {
	inj := iofault.NewInjector(nil)
	dir := t.TempDir()
	c, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	if err := inj.Arm(iofault.OpTransientEIO, iofault.Arm{Times: -1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	if code := postInvoke(t, ts.URL, map[string]any{"op": "set", "scope": "always", "msg": "lost"}); code != http.StatusServiceUnavailable {
		t.Fatalf("invoke with dead trusted channel: status %d, want 503", code)
	}
	inj.Heal()
	if st := c.Status(); st.Served != 0 || st.ActiveEvents != 0 {
		t.Fatalf("refused request was counted or recorded: %+v", st)
	}
	// The channel healed: serving resumes without a restart.
	if code := postInvoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"}); code != http.StatusOK {
		t.Fatalf("invoke after heal: status %d, want 200", code)
	}
	m, err := c.Seal()
	if err != nil || m == nil {
		t.Fatalf("seal = %+v, %v", m, err)
	}
	if !strings.Contains(m.Degraded, "request append failed") {
		t.Fatalf("manifest degraded = %q, want request-append reason", m.Degraded)
	}

	a, err := auditd.New(auditd.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if st := a.Status(); st.Unauditable != 1 || st.Rejected != 0 || st.Accepted != 0 {
		t.Fatalf("audit status = %+v, want the epoch unauditable and nothing rejected", st)
	}
}
