package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/leakcheck"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

// TestMain fails the package when one of its goroutines outlives the tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

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
}

// TestForwardsOnce: a failed forward is never re-issued, whether the
// request provably never left (a refused dial) or reached the backend and
// lost its reply (the connection closed after the body was read). Either
// way the client gets a hinted 503 and decides for itself.
func TestForwardsOnce(t *testing.T) {
	refused := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	refused.Close()
	var hits atomic.Int64
	hangUp := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer hangUp.Close()

	for _, tc := range []struct {
		name, backend string
		hits          int64 // times the backend's handler saw the request
	}{
		{"refused dial", refused.URL, 0},
		{"connection closed after the body", hangUp.URL, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hits.Store(0)
			gw, err := New(Config{Map: wikiMap(1), Backends: []string{tc.backend}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(gw.Handler())
			resp := postInvoke(t, ts.URL, workload.Wiki(1, 3)[0].Input)
			ts.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("status %d, Retry-After %q; want a hinted 503", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if c := gw.Counters()[0]; c.Errors != 1 || c.Retries != 0 {
				t.Fatalf("counters = %+v, want errors=1 retries=0", c)
			}
			if n := hits.Load(); n != tc.hits {
				t.Fatalf("the backend saw the request %d times, want %d", n, tc.hits)
			}
		})
	}
}

// oneShard is a one-backend gateway in front of h, served over httptest.
func oneShard(t *testing.T, h http.HandlerFunc) (*Gateway, string) {
	t.Helper()
	backend := httptest.NewServer(h)
	t.Cleanup(backend.Close)
	gw, err := New(Config{Map: wikiMap(1), Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts.URL
}

// wantDegraded checks the gateway's own answer to a failed forward: a 503
// hinted with Retry-After and naming the shard, counted as one error.
func wantDegraded(t *testing.T, gw *Gateway, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfterSecs || resp.Header.Get(ShardHeader) != "0" {
		t.Fatalf("status %d, Retry-After %q, shard %q; want the gateway's hinted 503 for shard 0",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get(ShardHeader))
	}
	if c := gw.Counters()[0]; c.Routed != 1 || c.Errors != 1 {
		t.Fatalf("counters = %+v, want routed=1 errors=1", c)
	}
}

// TestInvokeTimesOut: a backend that accepts /invoke and never answers is
// cut off at the forward timeout, and the client gets a hinted 503 instead
// of hanging with it.
func TestInvokeTimesOut(t *testing.T) {
	hung := hungServer(t)
	gw, err := New(Config{Map: wikiMap(1), Backends: []string{hung.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	start := time.Now()
	resp := postInvoke(t, ts.URL, workload.Wiki(1, 3)[0].Input)
	if took := time.Since(start); took < forwardTimeout || took > forwardTimeout+3*time.Second {
		t.Fatalf("invoke answered after %v, want about the %v forward timeout", took, forwardTimeout)
	}
	wantDegraded(t, gw, resp)
}

// TestTornReplyIsDegraded: a backend that sends a 200 header and then cuts
// the connection mid-body never reaches the client as a 200. The gateway
// buffers the whole reply first, so the torn read is a failed forward.
func TestTornReplyIsDegraded(t *testing.T) {
	gw, url := oneShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"rid\":\"r0")
		buf.Flush()
		conn.Close()
	})
	wantDegraded(t, gw, postInvoke(t, url, workload.Wiki(1, 3)[0].Input))
}

// TestOversizedReplyIsDegraded: a reply over the buffering bound is a failed
// forward, not its first maxProxyBody bytes passed on under a 200.
func TestOversizedReplyIsDegraded(t *testing.T) {
	gw, url := oneShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(" "), maxProxyBody+1))
	})
	wantDegraded(t, gw, postInvoke(t, url, workload.Wiki(1, 3)[0].Input))
}

// TestBackendAnswerPassesThrough: whatever the backend answers, the client
// gets it verbatim (status, body, Content-Type, Retry-After) plus the shard
// header. A backend's own error is its verdict, not a failed forward: only
// a 429 is tallied (as shed), and nothing counts as a gateway error.
func TestBackendAnswerPassesThrough(t *testing.T) {
	for _, tc := range []struct {
		name        string
		status      int
		retry, body string
		shed        uint64
	}{
		{"served", http.StatusOK, "", `{"rid":"r00000001","output":"ok"}`, 0},
		{"bad input", http.StatusBadRequest, "", `{"error":"bad input"}`, 0},
		{"shed", http.StatusTooManyRequests, "3", `{"error":"admission window full"}`, 1},
		{"server error", http.StatusInternalServerError, "", `{"error":"boom"}`, 0},
		{"draining", http.StatusServiceUnavailable, "5", `{"error":"draining"}`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, url := oneShard(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if tc.retry != "" {
					w.Header().Set("Retry-After", tc.retry)
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			})
			resp := postInvoke(t, url, workload.Wiki(1, 3)[0].Input)
			blob, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || string(blob) != tc.body {
				t.Fatalf("got %d %q, want %d %q", resp.StatusCode, blob, tc.status, tc.body)
			}
			if ct, ra, sh := resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), resp.Header.Get(ShardHeader); ct != "application/json" || ra != tc.retry || sh != "0" {
				t.Fatalf("headers: Content-Type %q, Retry-After %q, shard %q", ct, ra, sh)
			}
			if c := gw.Counters()[0]; c != (ShardCounters{Routed: 1, Shed: tc.shed}) {
				t.Fatalf("counters = %+v, want routed=1 shed=%d and nothing else", c, tc.shed)
			}
		})
	}
}

// TestClientCancelReachesBackend: the forward runs under the client's
// request context, so a client that gives up releases the backend request
// at once rather than at the forward timeout.
func TestClientCancelReachesBackend(t *testing.T) {
	entered, released := make(chan struct{}), make(chan struct{})
	_, url := oneShard(t, func(w http.ResponseWriter, r *http.Request) {
		// A server notices a closed connection only once the body is read.
		io.Copy(io.Discard, r.Body)
		close(entered)
		<-r.Context().Done()
		close(released)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/invoke", strings.NewReader(`{"input":{"id":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered
	cancel()
	select {
	case <-released:
	case <-time.After(forwardTimeout / 2):
		t.Fatal("the backend request outlived the cancelled client")
	}
	if err := <-done; err == nil {
		t.Fatal("cancelled client got an answer")
	}
}

// recordingTransport notes every backend request the gateway makes, and
// whether it carried a deadline no later than the forward timeout.
type recordingTransport struct {
	mu   sync.Mutex
	seen map[string]bool // "METHOD /path" -> bounded by forwardTimeout
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	deadline, ok := req.Context().Deadline()
	rt.mu.Lock()
	rt.seen[req.Method+" "+req.URL.Path] = ok && time.Until(deadline) <= forwardTimeout
	rt.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestEveryBackendRequestIsBounded: /invoke, /seal and both probes all go
// through Config.Transport, each under the forward timeout.
func TestEveryBackendRequestIsBounded(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"rid":"r00000001"}`)
	}))
	defer backend.Close()
	rt := &recordingTransport{seen: map[string]bool{}}
	gw, err := New(Config{Map: wikiMap(1), Backends: []string{backend.URL}, Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	postInvoke(t, ts.URL, workload.Wiki(1, 3)[0].Input)
	for _, call := range []struct{ method, path string }{
		{http.MethodPost, "/seal"}, {http.MethodGet, "/healthz"}, {http.MethodGet, "/readyz"},
	} {
		req, err := http.NewRequest(call.method, ts.URL+call.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	want := map[string]bool{"POST /invoke": true, "POST /seal": true, "GET /healthz": true, "GET /readyz": true}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.seen) != len(want) {
		t.Fatalf("backend requests %v, want exactly %v", rt.seen, want)
	}
	for k := range want {
		if bounded, ok := rt.seen[k]; !ok || !bounded {
			t.Errorf("%s: sent %v, bounded by the forward timeout %v", k, ok, bounded)
		}
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
// gateway counters plus one collector document per backend.
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
	if health.Shards != 2 || len(health.Backends) != 2 || len(health.Counters) != 2 {
		t.Fatalf("healthz shape: %+v", health)
	}
	served := 0
	for i, b := range health.Backends {
		if b.Shard != i || b.Status != http.StatusOK {
			t.Fatalf("backend %d healthz: %+v", i, b)
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
// the forward timeout. The gateway's /healthz still answers and reports the
// error for that shard, while the healthy shard's document comes through
// untouched.
func TestHealthzProbeTimesOut(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"served":7}`)
	}))
	defer healthy.Close()
	hung := hungServer(t)

	gw, err := New(Config{Map: wikiMap(2), Backends: []string{healthy.URL, hung.URL}})
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
		Backends []shardProbe `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Backends) != 2 {
		t.Fatalf("healthz shape: %+v", health)
	}
	if b := health.Backends[1]; b.Error == "" || b.Status != 0 {
		t.Fatalf("hung backend probe: %+v, want a timeout error", b)
	}
	if b := health.Backends[0]; b.Error != "" || b.Status != http.StatusOK || string(b.Body) != `{"served":7}` {
		t.Fatalf("healthy backend probe: %+v", b)
	}
}

// hungServer is a backend that accepts every request and never answers
// until the caller gives up.
func hungServer(t *testing.T) *httptest.Server {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(func() {
		close(release)
		hung.Close()
	})
	return hung
}

// TestSealTimesOut: a backend that accepts /seal and never answers is cut
// off at the forward timeout. The fan-out still returns, with the healthy
// shard sealed and the hung one failed.
func TestSealTimesOut(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer healthy.Close()
	hung := hungServer(t)

	gw, err := New(Config{Map: wikiMap(2), Backends: []string{healthy.URL, hung.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Post(ts.URL+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("seal took %v behind a hung backend", took)
	}
	var out struct {
		Shards []sealResult `json:"shards"`
		Sealed int          `json:"sealed"`
		Failed int          `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Sealed != 1 || out.Failed != 1 || len(out.Shards) != 2 {
		t.Fatalf("seal: status %d, report %+v; want 1 sealed + 1 failed", resp.StatusCode, out)
	}
	if out.Shards[1].Error == "" {
		t.Fatalf("hung shard 1 reported no error: %+v", out.Shards[1])
	}
}

// TestPartialShardDegradation: with one shard down, only requests routing
// to that shard degrade; the rest serve normally.
func TestPartialShardDegradation(t *testing.T) {
	m := wikiMap(2)
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1})
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
}

// TestSealBestEffort: /seal is always 200 with the per-shard picture; a
// dark shard shows up as failed, the survivors still seal.
func TestSealBestEffort(t *testing.T) {
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: wikiMap(2), Seed: 1})
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

// TestCrashRestartReadyzAndShardHeader: /readyz flips
// AND-false while a shard is down, recovers after Restart, and the
// X-Karousos-Shard routing echo is identical across the restart.
func TestCrashRestartReadyzAndShardHeader(t *testing.T) {
	m := wikiMap(3)
	top, err := NewLocal(LocalConfig{Spec: harness.WikiApp(), Root: t.TempDir(), Map: m, Seed: 1})
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
	if got := send(top.Gateway.backend(0), body(limit+1, 'c')); got != http.StatusRequestEntityTooLarge {
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
