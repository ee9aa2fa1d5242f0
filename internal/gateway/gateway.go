// Package gateway is the sharded audit plane's front door: one HTTP
// endpoint fanning requests across N collectorhttp shard backends by the
// shard map's locality-key hash.
//
// The gateway is deliberately dumb — and that is a soundness feature. Its
// routing is a pure function of (shard map, request input), so an offline
// auditor holding shardmap.json and the per-shard traces recomputes every
// routing decision the gateway ever made (shard.Map.CheckRouting); a
// compromised or buggy gateway cannot move state between shards without
// the misrouted request sitting in the wrong shard's trusted trace as
// evidence. The gateway holds no audit state: each backend records its
// own trace and advice in its own epoch log, exactly as an unsharded
// collector would.
//
// Overload behavior composes per shard: a backend's 429 (admission window
// full, audit lag) passes through with its Retry-After hint intact, so
// one hot shard sheds its own arrivals while the others keep serving —
// backpressure is per shard because admission, epochs, and audit lag are.
//
// A failed forward composes the same way. Every request the gateway makes
// to a backend gets one attempt under forwardTimeout. /invoke is not
// idempotent, so the gateway never re-issues it: a refused dial, a timeout
// or a torn reply all answer 503 with Retry-After for that shard's
// keyspace only, and retrying is left to the client. A request lost on the
// link never reaches the shard's trusted trace, so it cannot touch a
// verdict; a shard that dies mid-epoch seals that epoch degraded at its
// next boot, and the audit grades it Unauditable. /readyz aggregates,
// reporting ready only when every shard backend is.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
)

// ShardHeader names the response header carrying the shard index a request
// was routed to — clients and tests observe routing without parsing logs.
const ShardHeader = "X-Karousos-Shard"

// forwardTimeout bounds every request the gateway makes to a backend: a
// proxied /invoke, one shard's /seal, one health or readiness probe. It is
// what turns a hung backend into a failed shard instead of a hung client.
const forwardTimeout = 2 * time.Second

// retryAfterSecs is the Retry-After hint on a gateway-degraded 503.
const retryAfterSecs = "1"

// maxProxyBody bounds one buffered backend response. A longer reply is a
// failed forward, never a truncated one passed on under the backend's 200.
const maxProxyBody = 4 << 20

// Config describes one gateway.
type Config struct {
	// Map is the shard topology; Validate must pass and len(Backends) must
	// equal Map.Shards.
	Map shard.Map
	// Backends are the shard collectors' base URLs, indexed by shard.
	Backends []string
	// Transport is the round-tripper every backend request goes through;
	// nil means the default transport.
	Transport http.RoundTripper
}

// ShardCounters is one shard's traffic tally at the gateway.
type ShardCounters struct {
	// Routed counts requests the map assigned to this shard.
	Routed uint64 `json:"routed"`
	// Shed counts backend 429s passed through.
	Shed uint64 `json:"shed,omitempty"`
	// Errors counts proxy failures (backend unreachable, bad response).
	Errors uint64 `json:"errors,omitempty"`
	// Retries is always 0: the gateway forwards once. It stays only because
	// the benchmark module still reads it, and goes with the next change to
	// the benchmark.
	Retries uint64 `json:"retries,omitempty"`
}

// Gateway routes requests to shard backends.
type Gateway struct {
	cfg    Config
	client *http.Client

	mu       sync.Mutex
	backends []string
	counters []ShardCounters
}

// New validates the topology against the backend list.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Backends) != cfg.Map.Shards {
		return nil, fmt.Errorf("gateway: %d backends for a %d-shard map", len(cfg.Backends), cfg.Map.Shards)
	}
	return &Gateway{
		cfg:      cfg,
		client:   &http.Client{Transport: cfg.Transport},
		backends: append([]string(nil), cfg.Backends...),
		counters: make([]ShardCounters, cfg.Map.Shards),
	}, nil
}

// SetBackend repoints one shard's backend URL — how a restarted collector
// (new listener, same epoch-log directory) rejoins the topology.
func (g *Gateway) SetBackend(s int, url string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s < 0 || s >= len(g.backends) {
		return fmt.Errorf("gateway: shard %d out of range", s)
	}
	g.backends[s] = url
	return nil
}

func (g *Gateway) backend(s int) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backends[s]
}

// Counters returns a copy of the per-shard traffic tallies.
func (g *Gateway) Counters() []ShardCounters {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]ShardCounters(nil), g.counters...)
}

func (g *Gateway) count(s int, f func(*ShardCounters)) {
	g.mu.Lock()
	f(&g.counters[s])
	g.mu.Unlock()
}

// Handler returns the gateway's HTTP mux:
//
//	POST /invoke  routed to ShardOf(input)'s backend; response passed
//	              through with X-Karousos-Shard set
//	POST /seal    fans out to every backend; 200 with per-shard results
//	GET  /healthz gateway counters plus every backend's /healthz, 200
//	              while the process lives
//	GET  /readyz  200 only when every shard backend reports ready
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", g.handleInvoke)
	mux.HandleFunc("POST /seal", g.handleSeal)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	return mux
}

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, collectorhttp.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request exceeds byte limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var body struct {
		Input json.RawMessage `json:"input"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var input value.V
	if len(body.Input) > 0 {
		if err := json.Unmarshal(body.Input, &input); err != nil {
			http.Error(w, "bad input value: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	s := g.cfg.Map.ShardOf(value.Normalize(input))
	g.count(s, func(c *ShardCounters) { c.Routed++ })

	resp, err := g.call(r.Context(), http.MethodPost, g.backend(s)+"/invoke", raw)
	if err != nil {
		// One dark shard degrades only its own keyspace: a hinted 503 the
		// client may retry, while every other shard keeps serving.
		g.count(s, func(c *ShardCounters) { c.Errors++ })
		w.Header().Set(ShardHeader, strconv.Itoa(s))
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, fmt.Sprintf("shard %d unavailable: %v", s, err), http.StatusServiceUnavailable)
		return
	}
	if resp.status == http.StatusTooManyRequests {
		g.count(s, func(c *ShardCounters) { c.Shed++ })
	}
	// Pass the backend's verdict through untouched — status, Retry-After,
	// body (buffered in full by call, so a mid-body cut can never tear
	// an already-committed 200). The gateway adds only the routing
	// evidence header.
	w.Header().Set(ShardHeader, strconv.Itoa(s))
	if ra := resp.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body) // best-effort proxy body; the status header is already sent
}

// sealResult is one backend's answer to a fanned-out /seal.
type sealResult struct {
	Shard  int             `json:"shard"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (g *Gateway) handleSeal(w http.ResponseWriter, r *http.Request) {
	results := make([]sealResult, g.cfg.Map.Shards)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.sealShard(r.Context(), i)
		}(i)
	}
	wg.Wait()
	// Sealing is best-effort by design: one dark shard must not block the
	// others' evidence from sealing. The caller always gets 200 with the
	// full per-shard picture and decides what a failed lane means — the
	// audit will grade that shard's missing epochs Unauditable, never the
	// survivors'.
	sealed, failed := 0, 0
	for _, res := range results {
		if res.Error != "" || res.Status >= 500 {
			failed++
		} else {
			sealed++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": results, "sealed": sealed, "failed": failed})
}

func (g *Gateway) sealShard(ctx context.Context, i int) sealResult {
	resp, err := g.call(ctx, http.MethodPost, g.backend(i)+"/seal", nil)
	if err != nil {
		g.count(i, func(c *ShardCounters) { c.Errors++ })
		return sealResult{Shard: i, Error: err.Error()}
	}
	out := sealResult{Shard: i, Status: resp.status}
	if json.Valid(resp.body) {
		out.Body = resp.body
	}
	return out
}

// shardProbe is one backend's answer to a fanned-out GET.
type shardProbe struct {
	Shard   int             `json:"shard"`
	Backend string          `json:"backend"`
	Status  int             `json:"status,omitempty"`
	Body    json.RawMessage `json:"body,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// probe GETs path on every backend concurrently.
func (g *Gateway) probe(ctx context.Context, path string) []shardProbe {
	results := make([]shardProbe, g.cfg.Map.Shards)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backend := g.backend(i)
			results[i] = shardProbe{Shard: i, Backend: backend}
			resp, err := g.call(ctx, http.MethodGet, backend+path, nil)
			if err != nil {
				results[i].Error = err.Error()
				return
			}
			results[i].Status = resp.status
			if json.Valid(resp.body) {
				results[i].Body = resp.body
			}
		}(i)
	}
	wg.Wait()
	return results
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":   g.cfg.Map.Shards,
		"counters": g.Counters(),
		"backends": g.probe(r.Context(), "/healthz"),
	})
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probes := g.probe(r.Context(), "/readyz")
	ready := true
	for _, p := range probes {
		if p.Error != "" || p.Status != http.StatusOK {
			ready = false
		}
	}
	status := http.StatusOK
	if !ready {
		// Ready means every shard is ready: a topology with a down or
		// draining shard cannot take its share of the keyspace, and a load
		// balancer must know before clients map onto the hole.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "backends": probes})
}

// proxied is one backend response buffered in full.
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// call makes one request to a backend under forwardTimeout and buffers the
// whole response. Buffering before anything reaches the client keeps a
// connection cut mid-body from tearing an already-committed 200: the torn
// read surfaces here as an error, and the client gets a clean 503.
func (g *Gateway) call(ctx context.Context, method, url string, body []byte) (*proxied, error) {
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody+1))
	if err != nil {
		return nil, err
	}
	if len(blob) > maxProxyBody {
		return nil, fmt.Errorf("backend reply exceeds %d bytes", maxProxyBody)
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: blob}, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // best-effort response body; the status header is already sent
}
