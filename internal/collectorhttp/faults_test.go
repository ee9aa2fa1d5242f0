package collectorhttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
)

func newFaulted(t *testing.T, inj *iofault.Injector, epochRequests int) (*Collector, *httptest.Server) {
	t.Helper()
	c, err := New(Config{
		Spec:          harness.MOTDApp(),
		Dir:           t.TempDir(),
		EpochRequests: epochRequests,
		FS:            inj,
		Backoff:       fault.Backoff{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// TestInvokeRetriesTransientAppend: a transient EIO on the trusted append
// is absorbed by the retry loop — the client sees a plain 200 and the
// trace stays balanced.
func TestInvokeRetriesTransientAppend(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 0)
	defer c.Close()

	if err := inj.Arm(iofault.OpTransientEIO, fault.Arm{Times: 2, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	out := invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	if out["rid"] == "" {
		t.Fatalf("invoke through transient fault: %v", out)
	}
	if fired := inj.Fired()[iofault.OpTransientEIO]; fired != 2 {
		t.Fatalf("fired %d transient faults, want both absorbed", fired)
	}
	if got := c.HealthSnapshot().Degraded; got != "" {
		t.Fatalf("absorbed transient degraded the epoch: %q", got)
	}
}

// TestInvokeRefusedWhenRequestAppendFails: if the REQ append fails past the
// retry budget, the request must be refused — never served off the record.
func TestInvokeRefusedWhenRequestAppendFails(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 0)
	defer c.Close()

	if err := inj.Arm(iofault.OpTransientEIO, fault.Arm{Times: -1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"input": map[string]any{"op": "get", "day": "mon"}})
	resp, _ := post(t, ts.URL+"/invoke", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("invoke with dead trusted channel: status %d, want 503", resp.StatusCode)
	}
	inj.Heal()
	if st := c.Status(); st.Served != 0 || st.ActiveEvents != 0 {
		t.Fatalf("refused request left state behind: %+v", st)
	}
	// The channel healed: serving resumes without a restart.
	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
}

// TestResponseAppendFailureDegradesButServes: once the response exists the
// client gets it; the epoch is flagged degraded instead of the request
// failing.
func TestResponseAppendFailureDegradesButServes(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 0)
	defer c.Close()

	// Skip the REQ append; fail every later trace append in this epoch.
	if err := inj.Arm(iofault.OpTransientEIO, fault.Arm{Times: -1, After: 1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	out := invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	if out["output"] == nil {
		t.Fatalf("degraded invoke dropped the output: %v", out)
	}
	h := c.HealthSnapshot()
	if !strings.Contains(h.Degraded, "response append failed") {
		t.Fatalf("health degraded = %q, want response-append reason", h.Degraded)
	}
	inj.Heal()
	if m, err := c.Seal(); err != nil || m == nil || m.Degraded == "" {
		t.Fatalf("sealed degraded epoch = %+v, %v", m, err)
	}
}

// TestAdviceENOSPCDegradesNotFails: disk-full on the advice channel returns
// 507, flags the epoch, and leaves the trusted path serving.
func TestAdviceENOSPCDegradesNotFails(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 0)
	defer c.Close()

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	if err := inj.Arm(iofault.OpENOSPC, fault.Arm{Times: -1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/advice", []byte("uploaded-advice"))
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("advice upload on full disk: status %d (%s), want 507", resp.StatusCode, body)
	}
	if h := c.HealthSnapshot(); !strings.Contains(h.Degraded, "advice append failed") {
		t.Fatalf("health degraded = %q, want advice-append reason", h.Degraded)
	}
	// Trusted path unaffected: the .advice filter spares the trace.
	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
}

// TestSealAdviceLossDegradesButSeals: when the drained advice cannot be
// appended at seal time, the seal still completes with the epoch flagged —
// the trusted trace is never held hostage to the advice channel.
func TestSealAdviceLossDegradesButSeals(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 0)
	defer c.Close()

	invoke(t, ts.URL, map[string]any{"op": "set", "scope": "always", "msg": "x"})
	if err := inj.Arm(iofault.OpENOSPC, fault.Arm{Times: -1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Seal()
	if err != nil || m == nil {
		t.Fatalf("seal with advice channel down = %+v, %v", m, err)
	}
	if !strings.Contains(m.Degraded, "advice lost at seal") {
		t.Fatalf("manifest degraded = %q, want advice-loss reason", m.Degraded)
	}
}

// TestHealthAndReadyEndpoints: /healthz always answers with epoch-log
// detail; /readyz flips to 503 when sealing is stuck and again once closed.
func TestHealthAndReadyEndpoints(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 2)

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.App != "motd" || h.ActiveSeq != 1 || h.ActiveRequests != 1 || h.OpenEpochAgeMS < 0 {
		t.Fatalf("healthz body: %+v", h)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while healthy: %d", resp.StatusCode)
	}

	// Break sealing: the threshold seal fails, the response still flows,
	// and readiness flips. The fault targets only the manifest fsync — the
	// trace's group-commit fsync must keep working or the second invoke
	// would (correctly) be refused before it ever reached the seal.
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: -1, Target: ".manifest"}); err != nil {
		t.Fatal(err)
	}
	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("seal failing")) {
		t.Fatalf("readyz with stuck seal: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("lastSealError")) {
		t.Fatalf("healthz with stuck seal: %d %s", resp.StatusCode, body)
	}

	// Heal and re-seal: readiness recovers.
	inj.Heal()
	if _, err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", resp.StatusCode)
	}

	c.Close()
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: %d", resp.StatusCode)
	}
}

// TestCrashLeavesPartialForRecovery: Crash abandons the active epoch
// unsealed; the next incarnation seals it flagged degraded and serves on.
func TestCrashLeavesPartialForRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	invoke(t, ts.URL, map[string]any{"op": "set", "scope": "always", "msg": "pre-crash"})
	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	if _, err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	invoke(t, ts.URL, map[string]any{"op": "get", "day": "tue"}) // stranded in epoch 2
	ts.Close()
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	defer c2.Close()
	sealed := c2.log.Sealed()
	if len(sealed) != 2 {
		t.Fatalf("sealed epochs after recovery = %d, want 2", len(sealed))
	}
	if sealed[0].Degraded != "" {
		t.Fatalf("cleanly sealed epoch 1 flagged degraded: %q", sealed[0].Degraded)
	}
	if !strings.Contains(sealed[1].Degraded, "recovered partial") {
		t.Fatalf("recovered epoch 2 degraded = %q, want recovered-partial reason", sealed[1].Degraded)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}
