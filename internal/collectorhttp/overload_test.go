package collectorhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
)

// TestAdmissionWindow exercises the bounded intake directly: slots, bytes,
// lag-proportional tightening, peaks, and the saturation flag.
func TestAdmissionWindow(t *testing.T) {
	a := newAdmission(8, 100, 4)
	if !a.tryAdmit(50) || !a.tryAdmit(50) {
		t.Fatal("window refused admissions that fit")
	}
	if a.tryAdmit(1) {
		t.Fatal("admitted past the byte bound")
	}
	a.release(50)
	if !a.tryAdmit(50) {
		t.Fatal("released bytes not reusable")
	}
	st := a.snapshot()
	if st.Inflight != 2 || st.QueuedBytes != 100 || st.PeakInflight != 2 || st.PeakQueuedBytes != 100 || st.Shed != 1 {
		t.Fatalf("snapshot after churn: %+v", st)
	}

	// Lag at 2× the limit halves the window; absurd lag floors it at 1.
	a.observeLag(8)
	if w := a.snapshot().EffectiveWindow; w != 4 {
		t.Fatalf("window at lag 8 (limit 4) = %d, want 4", w)
	}
	a.observeLag(10_000)
	if w := a.snapshot().EffectiveWindow; w != 1 {
		t.Fatalf("window at absurd lag = %d, want floor 1", w)
	}
	// One request is already in flight, so a tightened window of 1 is
	// saturated and the next arrival sheds on the slot bound.
	if st := a.snapshot(); !st.Saturated {
		t.Fatalf("window 1 with 2 inflight not saturated: %+v", st)
	}
	a.release(50)
	// One request still in flight fills the floored window of 1.
	if a.tryAdmit(10) {
		t.Fatal("admitted past the tightened window")
	}
	a.observeLag(0)
	if !a.tryAdmit(10) {
		t.Fatal("window did not reopen once the lag cleared")
	}
}

// TestOverWindowSheds429: arrivals beyond the admission window get 429
// with a jittered Retry-After hint, and the shed counter records them.
func TestOverWindowSheds429(t *testing.T) {
	c, err := New(Config{
		Spec:           harness.MOTDApp(),
		Dir:            t.TempDir(),
		MaxQueuedBytes: 1, // every real body exceeds this: all arrivals shed
		RetryAfter:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"input": map[string]any{"op": "get", "day": "mon"}})
	for i := 0; i < 2; i++ {
		resp, out := post(t, ts.URL+"/invoke", body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-window invoke: status %d (%s), want 429", resp.StatusCode, out)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 2 || ra > 4 {
			t.Fatalf("Retry-After = %q, want integer in [2,4]", resp.Header.Get("Retry-After"))
		}
	}
	if st := c.Status(); st.Shed != 2 || st.Served != 0 || st.ActiveEvents != 0 {
		t.Fatalf("status after sheds: %+v (shed requests must leave no trace)", st)
	}
}

// TestLagBackpressure: when the (stubbed) auditor falls behind, the window
// tightens and /readyz flips; when it catches up, both recover. Threshold
// seals make the lag deterministic — every invoke seals one epoch.
func TestLagBackpressure(t *testing.T) {
	var audited atomic.Uint64
	c, err := New(Config{
		Spec:          harness.MOTDApp(),
		Dir:           t.TempDir(),
		EpochRequests: 1,
		MaxInflight:   9,
		MaxAuditLag:   1,
		AuditProgress: func() (uint64, bool) { return audited.Load(), true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		invoke(t, ts.URL, map[string]any{"op": "get", "day": fmt.Sprint(i)})
	}
	// 3 epochs sealed, none audited: lag 3 over a limit of 1.
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h Status
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Admission.AuditLag != 3 || h.Admission.EffectiveWindow != 3 {
		t.Fatalf("admission under lag 3 (limit 1, max 9) = %+v, want window 9*1/3=3", h.Admission)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("audit lag")) {
		t.Fatalf("readyz under audit lag: %d %s", resp.StatusCode, body)
	}

	// The auditor catches up: the next poll reopens the window.
	audited.Store(3)
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after auditor caught up: %d", resp.StatusCode)
	}
	if w := c.adm.snapshot().EffectiveWindow; w != 9 {
		t.Fatalf("window after catch-up = %d, want 9", w)
	}
}

// TestCancelledRequestRecordsNothing: a request whose client went away
// before it was recorded is refused with 503 before its REQ is enqueued —
// it leaves no state behind.
func TestCancelledRequestRecordsNothing(t *testing.T) {
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(map[string]any{"input": map[string]any{"op": "get", "day": "mon"}})
	req := httptest.NewRequest(http.MethodPost, "/invoke", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || !bytes.Contains(rec.Body.Bytes(), []byte("request cancelled")) {
		t.Fatalf("cancelled invoke: %d %s, want 503 request-cancelled", rec.Code, rec.Body)
	}
	if st := c.Status(); st.Served != 0 || st.ActiveEvents != 0 {
		t.Fatalf("cancelled request left state behind: %+v", st)
	}
}

// TestServeAndSeal: a little workload serves to one balanced, sealed
// epoch, and a read sees the write before it.
func TestServeAndSeal(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	invoke(t, ts.URL, map[string]any{"op": "set", "scope": "always", "msg": "hello"})
	out := invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	if msg, _ := out["output"].(map[string]any); msg["msg"] != "hello" {
		t.Fatalf("served output %v", out["output"])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := epochlog.ListSealed(dir)
	if err != nil || len(sealed) != 1 {
		t.Fatalf("sealed %d epochs (err %v), want 1", len(sealed), err)
	}
	tr, _, _, err := epochlog.ReadSealed(dir, 1, epochlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckBalanced(); err != nil {
		t.Fatalf("trace unbalanced: %v", err)
	}
}

// TestConcurrentInvokesStayOrderedAndSealed: many goroutines invoke at
// once; every REQ/RESP pair stays inside one epoch, every trace balances,
// and nothing is double-counted. The -race run of this test is the lock
// discipline's proof.
func TestConcurrentInvokesStayOrderedAndSealed(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	const workers, per = 16, 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body, _ := json.Marshal(map[string]any{"input": map[string]any{"op": "get", "day": fmt.Sprintf("w%d-%d", g, i)}})
				resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Status(); st.Served != workers*per {
		t.Fatalf("served %d, want %d", st.Served, workers*per)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range sealed {
		tr, _, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
		if err != nil {
			t.Fatalf("epoch %d: %v", m.Seq, err)
		}
		if err := tr.CheckBalanced(); err != nil {
			t.Fatalf("epoch %d trace split a request pair: %v", m.Seq, err)
		}
		total += m.Requests
	}
	if total != workers*per {
		t.Fatalf("sealed epochs hold %d requests, want %d", total, workers*per)
	}
}

// TestThresholdSealsFullEpochs: every request that finds the count
// threshold crossed triggers a seal, and under concurrency several find it
// at once. Only the first may rotate; the others must see the fresh epoch
// below threshold and leave it alone, so every sealed epoch but the last
// (Close's partial one) holds at least EpochRequests requests.
func TestThresholdSealsFullEpochs(t *testing.T) {
	dir := t.TempDir()
	const clients, per, threshold = 8, 200, 100
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: threshold})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				input := map[string]any{"op": "get", "day": "mon"}
				if i%2 == 0 {
					input = map[string]any{"op": "set", "scope": "always", "msg": fmt.Sprintf("c%d-%d", g, i)}
				}
				body, _ := json.Marshal(map[string]any{"input": input})
				resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(sealed))
	total := 0
	for i, m := range sealed {
		sizes[i] = m.Requests
		total += m.Requests
	}
	if total != clients*per {
		t.Fatalf("sealed epochs hold %d requests, want %d", total, clients*per)
	}
	for i, n := range sizes[:len(sizes)-1] {
		if n < threshold {
			t.Fatalf("epoch %d sealed with %d requests, below the threshold %d; epoch sizes %v", i+1, n, threshold, sizes)
		}
	}
}

// TestOneDurabilityWaitPerRequest pins the serving path's fsync bill as a
// count: concurrent clients through Handler() on a disk whose trace writes
// and fsyncs are slow, with the data fsyncs of the trace counted per served
// request. A request's REQ frame commits while its handler runs and one
// wait covers both of its frames, so a request costs about one fsync; a
// collector that waited for each frame in turn would pay about two.
func TestOneDurabilityWaitPerRequest(t *testing.T) {
	const clients, per = 2, 32
	inj := iofault.NewInjector(nil)
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: t.TempDir(), FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	if err := inj.Arm(iofault.OpLatency, iofault.Arm{Times: -1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	before := inj.Counts()[iofault.CallSync]
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body, _ := json.Marshal(map[string]any{"input": map[string]any{"op": "set", "scope": "always", "msg": fmt.Sprintf("c%d-%d", g, i)}})
				resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	syncs := inj.Counts()[iofault.CallSync] - before
	if served := c.Status().Served; served != clients*per {
		t.Fatalf("served %d, want %d", served, clients*per)
	}
	// Measured on 2 cores: 64 fsyncs for 64 requests here, 124–128 when
	// each frame had its own wait (95 at GOMAXPROCS=1).
	const bound = clients * per * 5 / 4
	if syncs > bound {
		t.Fatalf("%d trace fsyncs for %d requests, want at most %d", syncs, clients*per, bound)
	}
}
