package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/netfault"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

// fastTuning keeps retry/breaker timing test-sized.
func fastTuning() Tuning {
	return Tuning{
		PerTryTimeout:   500 * time.Millisecond,
		MaxRetries:      2,
		BreakerFailures: 3,
		BreakerOpenFor:  80 * time.Millisecond,
		RetryAfter:      time.Second,
		Backoff:         fault.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
	}
}

// TestRetryTransparent: a refused dial (provably unsent) is retried and
// the client sees a clean 200; the backend executes the request exactly
// once.
func TestRetryTransparent(t *testing.T) {
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()

	in := netfault.NewInjector()
	if err := in.Arm(netfault.OpConnRefused, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Map: wikiMap(1), Backends: []string{top.BackendURL(0)},
		Transport: in.Transport(nil), Tuning: fastTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := workload.Wiki(1, 3)[0]
	resp := postInvoke(t, ts.URL, req.Input)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d through a transient refusal, want 200", resp.StatusCode)
	}
	c := gw.Counters()[0]
	if c.Retries != 1 || c.Errors != 0 {
		t.Fatalf("counters = %+v, want exactly one retry and no error", c)
	}
	if st := top.Collector(0).Status(); st.Served != 1 {
		t.Fatalf("collector served %d requests, want exactly 1 (no duplicate execution)", st.Served)
	}
}

// TestNoRetryAfterForward: a reset after the request reached the backend
// is ambiguous — the gateway must NOT re-issue it. The client gets 503,
// the backend has executed exactly once.
func TestNoRetryAfterForward(t *testing.T) {
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()

	in := netfault.NewInjector()
	if err := in.Arm(netfault.OpConnReset, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Map: wikiMap(1), Backends: []string{top.BackendURL(0)},
		Transport: in.Transport(nil), Tuning: fastTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := workload.Wiki(1, 3)[0]
	resp := postInvoke(t, ts.URL, req.Input)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after an ambiguous reset, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 has no Retry-After hint")
	}
	c := gw.Counters()[0]
	if c.Retries != 0 {
		t.Fatalf("counters = %+v: an ambiguous failure was retried", c)
	}
	if st := top.Collector(0).Status(); st.Served != 1 {
		t.Fatalf("collector served %d requests, want exactly 1 — a duplicate means the "+
			"gateway re-issued a non-idempotent request it could not prove unsent", st.Served)
	}
}

// TestBreakerLifecycle: consecutive transport failures open the shard's
// circuit (fast 503 without touching the backend), the open window leads
// to half-open, and a successful probe closes it.
func TestBreakerLifecycle(t *testing.T) {
	m := wikiMap(1)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	tn := fastTuning()
	tn.MaxRetries = -1 // isolate the breaker from retry amplification
	gw, err := New(Config{Map: m, Backends: []string{dead.URL}, Tuning: tn})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := workload.Wiki(1, 3)[0]
	for i := 0; i < tn.BreakerFailures; i++ {
		if resp := postInvoke(t, ts.URL, req.Input); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: status %d, want 503", i, resp.StatusCode)
		}
	}
	if st := gw.Breakers()[0]; st.State != "open" || st.Opened != 1 {
		t.Fatalf("breaker = %+v after %d failures, want open", st, tn.BreakerFailures)
	}
	// Open: fast-fail without a backend attempt.
	before := gw.Counters()[0]
	if resp := postInvoke(t, ts.URL, req.Input); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", resp.StatusCode)
	}
	after := gw.Counters()[0]
	if after.FastFails != before.FastFails+1 || after.Errors != before.Errors {
		t.Fatalf("open breaker did not fast-fail: before %+v after %+v", before, after)
	}

	// Stand the backend back up at the same address the breaker knows.
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer live.Close()
	if err := gw.SetBackend(0, live.URL); err != nil {
		t.Fatal(err)
	}
	time.Sleep(tn.BreakerOpenFor + 20*time.Millisecond)
	// Half-open: the next request is the probe; it succeeds and closes.
	if resp := postInvoke(t, ts.URL, req.Input); resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: status %d, want 200", resp.StatusCode)
	}
	if st := gw.Breakers()[0]; st.State != "closed" {
		t.Fatalf("breaker = %+v after successful probe, want closed", st)
	}
}

// TestPartialShardDegradation: with one shard's breaker open, only
// requests routing to that shard degrade; the rest serve normally.
func TestPartialShardDegradation(t *testing.T) {
	m := wikiMap(2)
	top, err := NewLocal(LocalConfig{
		Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1, Tuning: fastTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()

	victim := 0
	if err := top.Crash(victim); err != nil {
		t.Fatal(err)
	}
	served, degraded := 0, 0
	for _, r := range workload.Wiki(40, 7) {
		s := m.ShardOf(value.Normalize(r.Input))
		resp := postInvoke(t, ts.URL, r.Input)
		if got := resp.Header.Get(ShardHeader); got != strconv.Itoa(s) {
			t.Fatalf("shard header %q, want %d", got, s)
		}
		switch {
		case s == victim && resp.StatusCode == http.StatusServiceUnavailable:
			degraded++
		case s != victim && resp.StatusCode == http.StatusOK:
			served++
		default:
			t.Fatalf("shard %d (victim %d): status %d", s, victim, resp.StatusCode)
		}
	}
	if served == 0 || degraded == 0 {
		t.Fatalf("workload did not exercise both sides: served=%d degraded=%d", served, degraded)
	}
	if st := top.Gateway.Breakers()[victim]; st.Opened == 0 {
		t.Fatalf("victim breaker never opened: %+v", st)
	}
}

// TestSealBestEffort: /seal is always 200 with the per-shard picture; a
// dark shard shows up as failed, the survivors still seal.
func TestSealBestEffort(t *testing.T) {
	top, err := NewLocal(LocalConfig{
		Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(2), Seed: 1, Tuning: fastTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()

	for _, r := range workload.Wiki(16, 9) {
		postInvoke(t, ts.URL, r.Input)
	}
	if err := top.Crash(0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("best-effort seal: status %d, want 200 (one dark shard must not block the others)", resp.StatusCode)
	}
	var out struct {
		Shards []sealResult `json:"shards"`
		Sealed int          `json:"sealed"`
		Failed int          `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Sealed != 1 || out.Failed != 1 || len(out.Shards) != 2 {
		t.Fatalf("seal report %+v, want 1 sealed + 1 failed", out)
	}
	if out.Shards[0].Error == "" {
		t.Fatalf("dark shard 0 reported no error: %+v", out.Shards[0])
	}
	if out.Shards[1].Status != http.StatusOK && out.Shards[1].Status != http.StatusNoContent {
		t.Fatalf("surviving shard 1 did not seal: %+v", out.Shards[1])
	}
}

// TestCrashRestartReadyzAndShardHeader (satellite): /readyz flips
// AND-false while a shard is down, recovers after Restart, and the
// X-Karousos-Shard routing echo is identical across the restart.
func TestCrashRestartReadyzAndShardHeader(t *testing.T) {
	m := wikiMap(3)
	top, err := NewLocal(LocalConfig{
		Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1, Tuning: fastTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()

	readyz := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	reqs := workload.Wiki(24, 5)
	echoBefore := make([]string, len(reqs))
	for i, r := range reqs {
		resp := postInvoke(t, ts.URL, r.Input)
		echoBefore[i] = resp.Header.Get(ShardHeader)
		if want := strconv.Itoa(m.ShardOf(value.Normalize(r.Input))); echoBefore[i] != want {
			t.Fatalf("request %d echoed shard %s, map says %s", i, echoBefore[i], want)
		}
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("all up: readyz %d", got)
	}
	if err := top.Crash(2); err != nil {
		t.Fatal(err)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("shard down: readyz %d, want 503 (AND-aggregation)", got)
	}
	if err := top.Restart(2); err != nil {
		t.Fatal(err)
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("after restart: readyz %d, want 200", got)
	}
	// Routing is a pure function of the map: the restarted topology echoes
	// the identical shard for the identical input.
	for i, r := range reqs {
		resp := postInvoke(t, ts.URL, r.Input)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after restart: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(ShardHeader); got != echoBefore[i] {
			t.Fatalf("request %d echoed shard %s after restart, was %s before", i, got, echoBefore[i])
		}
	}
}

// TestGatewayRestartStateless: RestartGateway swaps in a fresh gateway
// (zero counters, closed breakers) behind the same Handler, and routing
// is unchanged — the gateway carries no state that matters.
func TestGatewayRestartStateless(t *testing.T) {
	m := wikiMap(2)
	top, err := NewLocal(LocalConfig{
		Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1, Tuning: fastTuning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()

	reqs := workload.Wiki(12, 11)
	echo := make([]string, len(reqs))
	for i, r := range reqs {
		echo[i] = postInvoke(t, ts.URL, r.Input).Header.Get(ShardHeader)
	}
	if err := top.RestartGateway(); err != nil {
		t.Fatal(err)
	}
	var routed uint64
	for _, c := range top.Gateway.Counters() {
		routed += c.Routed
	}
	if routed != 0 {
		t.Fatalf("restarted gateway carries %d routed counts", routed)
	}
	for i, r := range reqs {
		resp := postInvoke(t, ts.URL, r.Input)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after gateway restart: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(ShardHeader); got != echo[i] {
			t.Fatalf("request %d echoed shard %s after gateway restart, was %s", i, got, echo[i])
		}
	}
}

// TestRetryBudgetShape: the budget starts full at retryBudgetMax tokens,
// every retry spends one, and every proxied request earns
// retryBudgetRatio (0.2) of one, never past the cap.
func TestRetryBudgetShape(t *testing.T) {
	b := newRetryBudget()
	for i := 0; i < retryBudgetMax; i++ {
		if !b.spend() {
			t.Fatalf("a fresh budget refused retry %d of %d", i+1, retryBudgetMax)
		}
	}
	if b.spend() {
		t.Fatal("an empty budget paid for a retry")
	}
	for i := 0; i < 4; i++ {
		b.earn()
	}
	if b.spend() {
		t.Fatal("four requests earned a whole retry")
	}
	b.earn()
	b.earn()
	if !b.spend() {
		t.Fatal("six requests did not earn a retry")
	}
	if b.spend() {
		t.Fatal("six requests earned two retries")
	}
	for i := 0; i < 1000; i++ {
		b.earn()
	}
	n := 0
	for b.spend() {
		n++
	}
	if n != retryBudgetMax {
		t.Fatalf("a long quiet stretch stored %d retries, want the cap %d", n, retryBudgetMax)
	}
}

// TestRetryBudgetBoundsAmplification: under a full partition (every dial
// refused) the gateway retries until the shared budget runs dry, then
// stops retrying and counts the refusal, so retries stay bounded however
// generous MaxRetries is. Nothing ever reaches the backend.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer backend.Close()

	in := netfault.NewInjector()
	if err := in.Arm(netfault.OpConnRefused, fault.Arm{Times: -1}); err != nil {
		t.Fatal(err)
	}
	tun := fastTuning()
	tun.MaxRetries = 100
	tun.BreakerFailures = 1000
	gw, err := New(Config{
		Map: wikiMap(1), Backends: []string{backend.URL},
		Transport: in.Transport(nil), Tuning: tun,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	req := workload.Wiki(1, 3)[0]
	if resp := postInvoke(t, ts.URL, req.Input); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d through a partition, want 503", resp.StatusCode)
	}
	if c := gw.Counters()[0]; c.Retries != retryBudgetMax || c.BudgetDenied != 1 || c.Errors != 1 {
		t.Fatalf("first request: counters = %+v, want %d retries then one budget refusal", c, retryBudgetMax)
	}
	// Four more requests earn 0.8 of a token between them: none may retry.
	for i := 0; i < 4; i++ {
		if resp := postInvoke(t, ts.URL, req.Input); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d through a partition, want 503", resp.StatusCode)
		}
	}
	if c := gw.Counters()[0]; c.Retries != retryBudgetMax || c.BudgetDenied != 5 || c.Errors != 5 {
		t.Fatalf("after the budget ran dry: counters = %+v, want no new retries and 5 refusals", c)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("backend saw %d requests through refused dials", n)
	}
}
