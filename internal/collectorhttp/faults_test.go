package collectorhttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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

	if err := inj.Arm(iofault.OpTransientEIO, iofault.Arm{Times: 2, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	out := invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	if out["rid"] == "" {
		t.Fatalf("invoke through transient fault: %v", out)
	}
	if fired := inj.Fired()[iofault.OpTransientEIO]; fired != 2 {
		t.Fatalf("fired %d transient faults, want both absorbed", fired)
	}
	if got := c.Status().Degraded; got != "" {
		t.Fatalf("absorbed transient degraded the epoch: %q", got)
	}
}

// TestResponseAppendFailureDegradesButServes: once the response exists the
// client gets it; the epoch is flagged degraded instead of the request
// failing.
func TestResponseAppendFailureDegradesButServes(t *testing.T) {
	inj := iofault.NewInjector(nil)
	st := &syncStallFS{FS: inj, blocked: make(chan struct{}), release: make(chan struct{})}
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: t.TempDir(), FS: st})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// The REQ commits while the handler runs, so a lone request's two
	// frames often share one batch. Hold the handler until the REQ's batch
	// has been written alone and is in its fsync; the RESP then needs a
	// write of its own, and every trace write from here on fails.
	type reply struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan reply, 1)
	c.serveMu.Lock()
	go func() {
		body, _ := json.Marshal(map[string]any{"input": map[string]any{"op": "get", "day": "mon"}})
		resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		_, err = out.ReadFrom(resp.Body)
		done <- reply{status: resp.StatusCode, body: out.Bytes(), err: err}
	}()
	<-st.blocked
	if err := inj.Arm(iofault.OpTransientEIO, iofault.Arm{Times: -1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	close(st.release)
	c.serveMu.Unlock()
	r := <-done
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("invoke: status %d, %v: %s", r.status, r.err, r.body)
	}
	var out map[string]any
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatal(err)
	}
	if out["output"] == nil {
		t.Fatalf("degraded invoke dropped the output: %v", out)
	}
	h := c.Status()
	if !strings.Contains(h.Degraded, "response append failed") {
		t.Fatalf("health degraded = %q, want response-append reason", h.Degraded)
	}
	inj.Heal()
	if m, err := c.Seal(); err != nil || m == nil || m.Degraded == "" {
		t.Fatalf("sealed degraded epoch = %+v, %v", m, err)
	}
}

// syncStallFS holds the first fsync of a .trace file until release is
// closed, and closes blocked when that fsync arrives.
type syncStallFS struct {
	iofault.FS
	blocked, release chan struct{}
	once             sync.Once
}

func (s *syncStallFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".trace") {
		return f, err
	}
	return syncStallFile{File: f, fs: s}, nil
}

type syncStallFile struct {
	iofault.File
	fs *syncStallFS
}

func (f syncStallFile) Sync() error {
	first := false
	f.fs.once.Do(func() { first = true })
	if first {
		close(f.fs.blocked)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestSealAdviceLossDegradesButSeals: when the drained advice cannot be
// appended at seal time, the seal still completes with the epoch flagged —
// the trusted trace is never held hostage to the advice channel.
func TestSealAdviceLossDegradesButSeals(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 0)
	defer c.Close()

	invoke(t, ts.URL, map[string]any{"op": "set", "scope": "always", "msg": "x"})
	if err := inj.Arm(iofault.OpENOSPC, iofault.Arm{Times: -1, Target: ".advice"}); err != nil {
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

// TestHealthAndReadyEndpoints: /healthz always answers with the collector's
// counters and epoch-log detail; /readyz flips to 503 when sealing is stuck and again once closed.
func TestHealthAndReadyEndpoints(t *testing.T) {
	inj := iofault.NewInjector(nil)
	c, ts := newFaulted(t, inj, 2)

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h Status
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.App != "motd" || h.ActiveSeq != 1 || h.ActiveRequests != 1 || h.Served != 1 || h.OpenEpochAgeMS < 0 {
		t.Fatalf("healthz body: %+v", h)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"served", "shed"} {
		if _, ok := fields[k]; !ok {
			t.Fatalf("healthz body has no %q: %s", k, body)
		}
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while healthy: %d", resp.StatusCode)
	}

	// Break sealing: the threshold seal fails, the response still flows,
	// and readiness flips. The fault targets only the manifest fsync — the
	// trace's group-commit fsync must keep working or the second invoke
	// would (correctly) be refused before it ever reached the seal.
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: -1, Target: ".manifest"}); err != nil {
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

// TestAuditLagCountsOnlySealedEpochs: an epoch rotated out but still
// pending its durable seal is not auditable, so it is not audit lag. With
// epoch 1 sealed and audited and epoch 2's manifest fsync failing, the lag
// is 0; once the seal lands it is 1.
func TestAuditLagCountsOnlySealedEpochs(t *testing.T) {
	inj := iofault.NewInjector(nil)
	var audited atomic.Uint64
	c, err := New(Config{
		Spec:          harness.MOTDApp(),
		Dir:           t.TempDir(),
		EpochRequests: 1,
		FS:            inj,
		AuditProgress: func() (uint64, bool) { return audited.Load(), true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	audited.Store(1)
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: -1, Target: ".manifest"}); err != nil {
		t.Fatal(err)
	}
	invoke(t, ts.URL, map[string]any{"op": "get", "day": "tue"})
	st := c.Status()
	if st.SealedEpochs != 1 || st.PendingSeals != 1 || st.LastSealError == "" {
		t.Fatalf("status with epoch 2's seal failing = %+v, want 1 sealed and 1 pending", st)
	}
	if st.Admission.AuditLag != 0 {
		t.Fatalf("audit lag = %d with every sealed epoch audited, want 0", st.Admission.AuditLag)
	}

	inj.Heal()
	if _, err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.SealedEpochs != 2 || st.Admission.AuditLag != 1 {
		t.Fatalf("after the seal lands: %d sealed, audit lag %d; want 2 and 1", st.SealedEpochs, st.Admission.AuditLag)
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
