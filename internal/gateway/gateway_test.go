package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

func wikiMap(shards int) shard.Map {
	return shard.Map{Shards: shards, KeyFields: []string{"id", "page"}}
}

func postInvoke(t *testing.T, url string, input value.V) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRoutingMatchesMap: every request lands on the backend the map's own
// hash names, and the response says which (X-Karousos-Shard).
func TestRoutingMatchesMap(t *testing.T) {
	m := wikiMap(4)
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	for _, r := range workload.Wiki(24, 5) {
		resp := postInvoke(t, ts.URL, r.Input)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
		got, err := strconv.Atoi(resp.Header.Get(ShardHeader))
		if err != nil {
			t.Fatalf("bad %s header: %v", ShardHeader, err)
		}
		if want := m.ShardOf(value.Normalize(r.Input)); got != want {
			t.Fatalf("routed to shard %d, map says %d for %v", got, want, r.Input)
		}
	}
	total := uint64(0)
	for _, c := range top.Gateway.Counters() {
		total += c.Routed
	}
	if total != 24 {
		t.Fatalf("routed total = %d, want 24", total)
	}
}

// TestBackpressurePassthrough: a backend's 429 reaches the client with its
// Retry-After hint intact, counted as shed for that shard; a down backend
// yields 503 with the gateway's own Retry-After hint, counted as an error.
func TestBackpressurePassthrough(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "admission window full", http.StatusTooManyRequests)
	}))
	defer shedding.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	// One-field map: "k" chooses the shard; find one key per backend.
	m := shard.Map{Shards: 2, KeyFields: []string{"k"}}
	var k0, k1 value.V
	for i := 0; i < 64 && (k0 == nil || k1 == nil); i++ {
		in := value.Normalize(value.Map("k", fmt.Sprintf("key-%d", i)))
		if m.ShardOf(in) == 0 && k0 == nil {
			k0 = in
		} else if m.ShardOf(in) == 1 && k1 == nil {
			k1 = in
		}
	}
	gw, err := New(Config{Map: m, Backends: []string{shedding.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	resp := postInvoke(t, ts.URL, k0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed backend: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the backend's hint", ra)
	}
	resp = postInvoke(t, ts.URL, k1)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead backend: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 has no Retry-After hint")
	}
	counters := gw.Counters()
	if counters[0].Shed != 1 || counters[1].Errors != 1 {
		t.Fatalf("counters = %+v, want shard0 shed=1, shard1 errors=1", counters)
	}
	if counters[1].Retries == 0 {
		t.Fatalf("counters = %+v, want refused dials retried before degrading", counters)
	}
}

// TestReadyzAggregates: the topology is ready only when every shard is.
func TestReadyzAggregates(t *testing.T) {
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all shards up: readyz %d", resp.StatusCode)
	}
	if err := top.Crash(1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("one shard down: readyz %d, want 503 (%s)", resp.StatusCode, blob)
	}
	if err := top.Restart(1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restart: readyz %d", resp.StatusCode)
	}
}

// TestSealFanoutAndStatus: /seal reaches every backend; /healthz reports
// gateway counters and breakers plus one collector document per backend.
func TestSealFanoutAndStatus(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(2)
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: root, Map: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	for _, r := range workload.Wiki(16, 9) {
		if resp := postInvoke(t, ts.URL, r.Input); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: status %d", resp.StatusCode)
	}
	var sealed struct {
		Shards []struct {
			Shard  int `json:"shard"`
			Status int `json:"status"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sealed); err != nil {
		t.Fatal(err)
	}
	if len(sealed.Shards) != 2 {
		t.Fatalf("seal fanned out to %d shards", len(sealed.Shards))
	}
	for _, s := range sealed.Shards {
		// 200 sealed a manifest, 204 that shard's active epoch was empty.
		if s.Status != http.StatusOK && s.Status != http.StatusNoContent {
			t.Fatalf("shard %d seal status %d", s.Shard, s.Status)
		}
	}

	// The map file is on disk for offline auditors.
	if _, err := shard.ReadMap(root); err != nil {
		t.Fatalf("topology root has no readable shard map: %v", err)
	}

	sresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var health struct {
		Shards   int             `json:"shards"`
		Counters []ShardCounters `json:"counters"`
		Breakers []BreakerStatus `json:"breakers"`
		Backends []struct {
			Shard  int `json:"shard"`
			Status int `json:"status"`
			Body   struct {
				Served int `json:"served"`
			} `json:"body"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Shards != 2 || len(health.Backends) != 2 || len(health.Counters) != 2 || len(health.Breakers) != 2 {
		t.Fatalf("healthz shape: %+v", health)
	}
	served := 0
	for i, b := range health.Backends {
		if b.Shard != i || b.Status != http.StatusOK {
			t.Fatalf("backend %d healthz: %+v", i, b)
		}
		if health.Breakers[i].State != "closed" {
			t.Fatalf("shard %d breaker %q after clean traffic", i, health.Breakers[i].State)
		}
		served += b.Body.Served
	}
	if served != 16 {
		t.Fatalf("backends report %d served, want 16", served)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Map: shard.Map{Shards: 2}, Backends: []string{"http://x"}}); err == nil {
		t.Fatal("backend/shard count mismatch accepted")
	}
	if _, err := New(Config{Map: shard.Map{Shards: 0}}); err == nil {
		t.Fatal("invalid map accepted")
	}
	gw, err := New(Config{Map: shard.Map{Shards: 1}, Backends: []string{"http://x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.SetBackend(5, "http://y"); err == nil {
		t.Fatal("out-of-range SetBackend accepted")
	}
}

// TestGatewayServesExactlyItsRoutes: the gateway answers POST /invoke,
// POST /seal, GET /healthz and GET /readyz and nothing else.
func TestGatewayServesExactlyItsRoutes(t *testing.T) {
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()

	if resp := postInvoke(t, ts.URL, workload.Wiki(1, 3)[0].Input); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke: status %d", resp.StatusCode)
	}
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/advice", http.StatusNotFound},
		{http.MethodGet, "/status", http.StatusNotFound},
		{http.MethodGet, "/invoke", http.StatusMethodNotAllowed},
		{http.MethodGet, "/seal", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodPost, "/readyz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/readyz", http.StatusOK},
		{http.MethodPost, "/seal", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestHealthzProbeTimesOut: a backend whose /healthz hangs is cut off at
// the per-try timeout. The gateway's /healthz still answers, reports the
// error for that shard and counts a breaker failure, while the healthy
// shard's document comes through untouched.
func TestHealthzProbeTimesOut(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"served":7}`)
	}))
	defer healthy.Close()
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hung.Close()
	defer close(release)

	tun := fastTuning()
	tun.PerTryTimeout = 100 * time.Millisecond
	gw, err := New(Config{Map: wikiMap(2), Backends: []string{healthy.URL, hung.URL}, Tuning: tun})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("healthz took %v behind a hung backend", took)
	}
	var health struct {
		Breakers []BreakerStatus `json:"breakers"`
		Backends []shardProbe    `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Backends) != 2 || len(health.Breakers) != 2 {
		t.Fatalf("healthz shape: %+v", health)
	}
	if b := health.Backends[1]; b.Error == "" || b.Status != 0 {
		t.Fatalf("hung backend probe: %+v, want a timeout error", b)
	}
	if f := health.Breakers[1].Failures; f != 1 {
		t.Fatalf("hung backend breaker failures = %d, want 1", f)
	}
	if b := health.Backends[0]; b.Error != "" || b.Status != http.StatusOK || string(b.Body) != `{"served":7}` {
		t.Fatalf("healthy backend probe: %+v", b)
	}
	if f := health.Breakers[0].Failures; f != 0 {
		t.Fatalf("healthy backend breaker failures = %d, want 0", f)
	}
}

// TestOverLimitBodyIs413 pins collectorhttp.MaxRequestBytes on both sides
// of the wire: a body of exactly the limit is served, one byte more is
// answered 413 by the gateway and by the collector behind it, and nothing
// of the refused body reaches the sealed epoch.
func TestOverLimitBodyIs413(t *testing.T) {
	root := t.TempDir()
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: root, Map: wikiMap(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()

	// body is a wiki create of exactly n bytes whose content is pad
	// repeated.
	body := func(n int, pad byte) []byte {
		const prefix, suffix = `{"input":{"op":"create","reqid":"rbig","id":"page-01","title":"t","content":"`, `"}}`
		return []byte(prefix + strings.Repeat(string(pad), n-len(prefix)-len(suffix)) + suffix)
	}
	send := func(url string, b []byte) int {
		t.Helper()
		resp, err := http.Post(url+"/invoke", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const limit = collectorhttp.MaxRequestBytes
	if got := send(ts.URL, body(limit, 'a')); got != http.StatusOK {
		t.Fatalf("gateway, body of exactly %d bytes: status %d, want 200", limit, got)
	}
	if got := send(ts.URL, body(limit+1, 'b')); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("gateway, body of %d bytes: status %d, want 413", limit+1, got)
	}
	// The gateway refuses on its own, before routing: a 413 passed through
	// from the collector would count as routed.
	if routed := top.Gateway.Counters()[0].Routed; routed != 1 {
		t.Fatalf("gateway routed %d requests, want only the at-limit one", routed)
	}
	if got := send(top.BackendURL(0), body(limit+1, 'c')); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("collector, body of %d bytes: status %d, want 413", limit+1, got)
	}
	if err := top.Close(); err != nil { // seals the partial epoch
		t.Fatal(err)
	}

	dir := shard.Dir(root, 0)
	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reqs int
	for _, m := range sealed {
		tr, _, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
		if err != nil {
			t.Fatalf("epoch %d: %v", m.Seq, err)
		}
		for _, e := range tr.Events {
			if e.Kind == trace.Req {
				reqs++
			}
			data, err := json.Marshal(e.Data)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte("bbbb")) || bytes.Contains(data, []byte("cccc")) {
				t.Errorf("epoch %d records part of a refused body: %.80s…", m.Seq, data)
			}
		}
	}
	if reqs != 1 {
		t.Errorf("sealed epochs hold %d requests, want only the at-limit one", reqs)
	}
}
