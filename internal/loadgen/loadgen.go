// Package loadgen is the one client of the serving path: the only code in
// the tree that POSTs /invoke and classifies the answer. Everything that
// drives a collector or a gateway — the chaos scenario engine, the
// collector crash test, `karousos load`, the figure log-builders — calls
// Run, so the arrival ledger the overload and evidence invariants are
// stated on is booked in one place (DESIGN.md §14.3, §19.4).
//
// Run covers three loops. The closed loop sends one request at a time, each
// when the previous has been answered: fully deterministic, and what a
// scripted scenario or a log builder wants. The open loops pace arrivals by
// a clock, not by completions — request i is due at start + i/rate (or at
// once, a burst) whether or not earlier requests have finished, which is how
// real traffic behaves and exactly what closed loops hide (they slow their
// offered load down to whatever the server survives, so overload never
// shows). When the outstanding-request bound is hit, a due arrival is shed
// locally and counted — the generator itself never queues without bound,
// for the same reason the collector doesn't.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

// Config describes how one run drives its request stream.
type Config struct {
	// BaseURL is the collector or gateway to drive (e.g.
	// "http://127.0.0.1:8080").
	BaseURL string
	// Rate paces arrivals at this many requests/second. 0 means no pacing:
	// every arrival is due immediately.
	Rate float64
	// MaxOutstanding selects the loop. At most 1 is the closed loop: one
	// request at a time, nothing shed. More is an open loop: this many may
	// be outstanding and a due arrival past the bound is shed locally.
	MaxOutstanding int
	// Timeout bounds one request end to end. <=0 means 30s.
	Timeout time.Duration
	// SlowEvery, when >0, sends every Nth request's body through a
	// trickling chunked reader — the slow-client (slowloris-shaped)
	// overload ingredient.
	SlowEvery int
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Before, when set, runs on Run's goroutine before arrival i is
	// offered — where a scenario applies its scripted steps. An error
	// aborts the run.
	Before func(i int) error
	// Outcome, when set, sees every arrival that was sent, once, after it
	// is booked. The closed loop calls it on Run's goroutine before the
	// next arrival; the open loops call it from the request goroutines,
	// concurrently.
	Outcome func(i int, o Outcome)
}

// Class is the ledger bucket an answered arrival lands in.
type Class int

const (
	// Served is a 200 carrying a rid: the collector is now on the hook to
	// have made the request durable.
	Served Class = iota
	// Shed is a 429: admission control refused the arrival.
	Shed
	// Degraded is a 503 carrying Retry-After: a gateway shedding exactly
	// one dark shard's keyspace — a promised outcome, not a server error.
	Degraded
	// Other is any other answer. The overload invariant is that there are
	// none.
	Other
	// NoAnswer is a transport error or a torn response body.
	NoAnswer
)

// Outcome is one sent arrival's answer.
type Outcome struct {
	Class Class
	// Status is the HTTP status, 0 when no response arrived.
	Status int
	// Err is set for NoAnswer.
	Err error
	// Shard is the X-Karousos-Shard response header: the backend a gateway
	// routed to, "" from a bare collector.
	Shard string
	// Hinted reports a Retry-After header.
	Hinted bool
	// RID is a Served arrival's request id.
	RID string
}

func (o Outcome) String() string {
	if o.Err != nil {
		return "no answer: " + o.Err.Error()
	}
	return fmt.Sprintf("status %d (shard %q, Retry-After %v, rid %q)", o.Status, o.Shard, o.Hinted, o.RID)
}

// Ledger books answered arrivals: each lands in exactly one bucket.
type Ledger struct {
	Served   int `json:"served"`
	Shed     int `json:"shed"`
	Degraded int `json:"degraded"`
	Other    int `json:"other"`
}

func (l *Ledger) book(c Class) {
	switch c {
	case Served:
		l.Served++
	case Shed:
		l.Shed++
	case Degraded:
		l.Degraded++
	default:
		l.Other++
	}
}

// Result is one run's accounting, split the way the overload invariants
// need: every offered arrival is answered (the embedded Ledger), shed at
// the source, or unanswered, and the acked RIDs are the set the sealed log
// must contain.
type Result struct {
	Offered int `json:"offered"`
	Ledger
	ShedLocal int `json:"shedLocal"`
	NetErr    int `json:"netErr"`
	// Shards splits the ledger by X-Karousos-Shard header; nil when no
	// answer carried one (a bare collector).
	Shards map[string]*Ledger `json:"shards,omitempty"`
	// Acked holds the sorted RIDs of every Served arrival, keyed by the
	// shard header ("" from a bare collector).
	Acked   map[string][]string `json:"-"`
	Elapsed time.Duration       `json:"elapsedNanos"`
	Hist    *Histogram          `json:"-"`
	// P50/P99/P999 are the latency quantiles over answered requests, for
	// the JSON summary.
	P50  time.Duration `json:"p50Nanos"`
	P99  time.Duration `json:"p99Nanos"`
	P999 time.Duration `json:"p999Nanos"`
}

// Stream builds the deterministic request stream the CLI offers: n requests
// of app at mix, with the repeat fraction rewritten to the app's fixed pool
// of recurring read-only shapes (workload.WithRepeats). Same seed, same
// stream.
func Stream(app string, mix workload.Mix, n int, seed int64, repeat float64) ([]server.Request, error) {
	reqs, err := workload.For(app, mix, n, seed)
	if err != nil {
		return nil, err
	}
	return workload.WithRepeats(reqs, app, repeat, seed)
}

// slowBody trickles a payload out in small delayed chunks — a client on a
// bad link, or a deliberate slowloris. Sent without a content length so
// the server cannot size-check its way out of reading slowly.
type slowBody struct{ data []byte }

func (s *slowBody) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(2 * time.Millisecond)
	n := copy(p[:min(len(p), 16)], s.data)
	s.data = s.data[n:]
	return n, nil
}

// run is one Run's shared state.
type run struct {
	cfg Config     // Client and Timeout defaulted
	mu  sync.Mutex // guards res against the open loops' request goroutines
	res *Result
}

// Run offers reqs in order and returns the accounting. A cancelled context
// stops offering new arrivals; requests already in flight finish under
// their own timeout, and Run waits for them, so the ledger it returns —
// with the context's error — is complete for what was offered.
func Run(ctx context.Context, cfg Config, reqs []server.Request) (*Result, error) {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	r := &run{cfg: cfg, res: &Result{Hist: NewHistogram(), Acked: map[string][]string{}}}
	start := time.Now()
	err := r.offer(ctx, reqs, start)
	r.res.Elapsed = time.Since(start)
	for _, rids := range r.res.Acked {
		sort.Strings(rids)
	}
	r.res.P50 = r.res.Hist.Quantile(0.50)
	r.res.P99 = r.res.Hist.Quantile(0.99)
	r.res.P999 = r.res.Hist.Quantile(0.999)
	return r.res, err
}

// offer is the arrival loop. It returns once every request it sent has been
// answered or timed out, whether it ran to the end or stopped early.
func (r *run) offer(ctx context.Context, reqs []server.Request, start time.Time) error {
	cfg := r.cfg
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, max(cfg.MaxOutstanding, 1))
	for i, req := range reqs {
		if cfg.Rate > 0 {
			due := start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if cfg.Before != nil {
			if err := cfg.Before(i); err != nil {
				return err
			}
		}
		r.res.Offered++
		if cfg.MaxOutstanding <= 1 {
			r.send(ctx, i, req)
			continue
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r.send(ctx, i, req)
			}()
		default:
			// Open loop: the arrival was due now; with the outstanding
			// bound full it is shed at the source, never queued.
			r.res.ShedLocal++
		}
	}
	return nil
}

// send posts arrival i, books its outcome and reports it to the hook.
func (r *run) send(ctx context.Context, i int, req server.Request) {
	begin := time.Now()
	o := r.post(ctx, req, r.cfg.SlowEvery > 0 && i%r.cfg.SlowEvery == r.cfg.SlowEvery-1)
	lat := time.Since(begin)

	r.mu.Lock()
	if o.Class == NoAnswer {
		r.res.NetErr++
	} else {
		r.res.Hist.Observe(lat)
		r.res.Ledger.book(o.Class)
		if o.Shard != "" {
			if r.res.Shards == nil {
				r.res.Shards = map[string]*Ledger{}
			}
			l := r.res.Shards[o.Shard]
			if l == nil {
				l = &Ledger{}
				r.res.Shards[o.Shard] = l
			}
			l.book(o.Class)
		}
		if o.Class == Served {
			r.res.Acked[o.Shard] = append(r.res.Acked[o.Shard], o.RID)
		}
	}
	r.mu.Unlock()
	if r.cfg.Outcome != nil {
		r.cfg.Outcome(i, o)
	}
}

// post is the tree's one POST to /invoke: it sends the body and classifies
// the answer. The request outlives a cancelled run context on purpose — it
// was offered, so the ledger owes it an outcome — and is bounded by the
// per-request timeout instead.
func (r *run) post(ctx context.Context, in server.Request, slow bool) Outcome {
	body, err := json.Marshal(map[string]any{"input": in.Input})
	if err != nil {
		return Outcome{Class: NoAnswer, Err: err}
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), r.cfg.Timeout)
	defer cancel()
	var rd io.Reader = bytes.NewReader(body)
	if slow {
		rd = &slowBody{data: body}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.BaseURL+"/invoke", rd)
	if err != nil {
		return Outcome{Class: NoAnswer, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return Outcome{Class: NoAnswer, Err: err}
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := Outcome{
		Class:  Other,
		Status: resp.StatusCode,
		Shard:  resp.Header.Get(gateway.ShardHeader),
		Hinted: resp.Header.Get("Retry-After") != "",
	}
	switch {
	case err != nil:
		o.Class, o.Err = NoAnswer, err
	case o.Status == http.StatusOK:
		var ack struct {
			RID string `json:"rid"`
		}
		// A 200 without a rid acknowledges nothing auditable: Other.
		if json.Unmarshal(blob, &ack) == nil && ack.RID != "" {
			o.Class, o.RID = Served, ack.RID
		}
	case o.Status == http.StatusTooManyRequests:
		o.Class = Shed
	case o.Status == http.StatusServiceUnavailable && o.Hinted:
		o.Class = Degraded
	}
	return o
}

// Summary renders the run the way the CLI prints it.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d in %v (%.1f req/s completed)\n", r.Offered, r.Elapsed.Round(time.Millisecond), float64(r.Served)/r.Elapsed.Seconds())
	fmt.Fprintf(&b, "  ok %d  shed429 %d  degraded503 %d  shedLocal %d  netErr %d  other %d\n",
		r.Served, r.Shed, r.Degraded, r.ShedLocal, r.NetErr, r.Other)
	keys := make([]string, 0, len(r.Shards))
	for k := range r.Shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := r.Shards[k]
		fmt.Fprintf(&b, "  shard %-4s ok %d  shed429 %d  degraded503 %d  other %d\n", k, l.Served, l.Shed, l.Degraded, l.Other)
	}
	fmt.Fprintf(&b, "  latency p50 %v  p99 %v  p99.9 %v  mean %v\n",
		r.Hist.Quantile(0.50).Round(time.Microsecond), r.Hist.Quantile(0.99).Round(time.Microsecond),
		r.Hist.Quantile(0.999).Round(time.Microsecond), r.Hist.Mean().Round(time.Microsecond))
	return b.String()
}
