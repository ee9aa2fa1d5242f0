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
// Partition behavior composes the same way (Tuning). Each proxied attempt
// is bounded by a per-try timeout and classified on failure by
// netfault.Classify: only a provably-unsent request (refused dial) is
// retried, under bounded exponential backoff and a gateway-wide retry
// budget — /invoke is not idempotent, so an ambiguous failure (timeout,
// reset after send) is never re-issued. Consecutive transport failures
// open that shard's circuit breaker (closed→open→half-open, /healthz
// exposure); while it is open, only requests routing to that shard
// fast-fail with 503 + Retry-After and every other shard keeps serving.
// A dark shard therefore degrades exactly its own keyspace, and its
// unsealed epochs grade Unauditable at merge — degradation, never a false
// accusation. /readyz aggregates, reporting ready only when every shard
// backend is.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
)

// ShardHeader names the response header carrying the shard index a request
// was routed to — clients and tests observe routing without parsing logs.
const ShardHeader = "X-Karousos-Shard"

// Config describes one gateway.
type Config struct {
	// Map is the shard topology; Validate must pass and len(Backends) must
	// equal Map.Shards.
	Map shard.Map
	// Backends are the shard collectors' base URLs, indexed by shard.
	Backends []string
	// Client performs the proxied requests. nil means a client built on
	// Transport; attempts are bounded per try (Tuning.PerTryTimeout), so
	// the client itself carries no overall timeout.
	Client *http.Client
	// Transport, when Client is nil, is the proxy round-tripper — the
	// netfault plug point: Injector.Transport(nil) here puts every
	// gateway→shard hop on the fault schedule. nil means the default
	// transport.
	Transport http.RoundTripper
	// Tuning bounds retries, breakers and degradation hints; the zero
	// value means defaults.
	Tuning Tuning
}

// ShardCounters is one shard's traffic tally at the gateway.
type ShardCounters struct {
	// Routed counts requests the map assigned to this shard.
	Routed uint64 `json:"routed"`
	// Shed counts backend 429s passed through.
	Shed uint64 `json:"shed,omitempty"`
	// Errors counts proxy failures (backend unreachable, bad response).
	Errors uint64 `json:"errors,omitempty"`
	// Retries counts re-issued attempts (classified safe, budget paid).
	Retries uint64 `json:"retries,omitempty"`
	// BudgetDenied counts retries the global budget refused.
	BudgetDenied uint64 `json:"budgetDenied,omitempty"`
	// FastFails counts invokes the open breaker answered without touching
	// the backend.
	FastFails uint64 `json:"fastFails,omitempty"`
}

// Gateway routes requests to shard backends.
type Gateway struct {
	cfg      Config
	client   *http.Client
	tuning   Tuning
	breakers []*breaker
	budget   *retryBudget

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
	tuning := cfg.Tuning.withDefaults()
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: cfg.Transport}
	}
	breakers := make([]*breaker, cfg.Map.Shards)
	for i := range breakers {
		breakers[i] = newBreaker(tuning.BreakerFailures, tuning.BreakerOpenFor)
	}
	return &Gateway{
		cfg:      cfg,
		client:   client,
		tuning:   tuning,
		breakers: breakers,
		budget:   newRetryBudget(),
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
//	GET  /healthz gateway counters and breakers plus every backend's
//	              /healthz, 200 while the process lives
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

	if !g.breakers[s].allow() {
		// Open circuit: fast-fail without touching the backend. Only this
		// shard's keyspace degrades; every other shard keeps serving.
		g.count(s, func(c *ShardCounters) { c.FastFails++ })
		g.degrade(w, s, "circuit open")
		return
	}
	resp, err := g.forward(r.Context(), s, raw)
	if err != nil {
		g.count(s, func(c *ShardCounters) { c.Errors++ })
		g.degrade(w, s, err.Error())
		return
	}
	if resp.status == http.StatusTooManyRequests {
		g.count(s, func(c *ShardCounters) { c.Shed++ })
	}
	// Pass the backend's verdict through untouched — status, Retry-After,
	// body (buffered in full by forward, so a mid-body cut can never tear
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
			results[i] = g.sealShard(i)
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

func (g *Gateway) sealShard(i int) sealResult {
	resp, err := g.client.Post(g.backend(i)+"/seal", "application/json", nil)
	if err != nil {
		g.count(i, func(c *ShardCounters) { c.Errors++ })
		return sealResult{Shard: i, Error: err.Error()}
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // best-effort seal report body
	out := sealResult{Shard: i, Status: resp.StatusCode}
	if json.Valid(blob) {
		out.Body = blob
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

// probe GETs path on every backend concurrently. Probe outcomes feed the
// breakers without consulting them: a health sweep can both
// detect a dark shard before any invoke pays for the discovery and close
// an open circuit the moment the backend answers again.
func (g *Gateway) probe(path string) []shardProbe {
	results := make([]shardProbe, g.cfg.Map.Shards)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backend := g.backend(i)
			results[i] = shardProbe{Shard: i, Backend: backend}
			resp, err := g.probeGet(context.Background(), backend+path)
			if err != nil {
				g.breakers[i].onFailure()
				results[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			g.breakers[i].onSuccess()
			blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // best-effort probe body
			results[i].Status = resp.StatusCode
			if json.Valid(blob) {
				results[i].Body = blob
			}
		}(i)
	}
	wg.Wait()
	return results
}

// Breakers returns every shard breaker's state.
func (g *Gateway) Breakers() []BreakerStatus {
	out := make([]BreakerStatus, len(g.breakers))
	for i, b := range g.breakers {
		out[i] = b.snapshot(i)
	}
	return out
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Probe first: its outcomes feed the breakers reported alongside.
	backends := g.probe("/healthz")
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":   g.cfg.Map.Shards,
		"counters": g.Counters(),
		"breakers": g.Breakers(),
		"backends": backends,
	})
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probes := g.probe("/readyz")
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // best-effort response body; the status header is already sent
}
