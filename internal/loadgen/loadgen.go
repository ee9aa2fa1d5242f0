// Package loadgen is the open-loop load generator behind the serving
// path's load story (DESIGN.md §14). Open-loop means arrivals are paced by
// a clock, not by completions: request i is due at start + i/rate whether
// or not earlier requests have finished, which is how real traffic behaves
// and exactly what closed-loop generators hide (closed loops slow their
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

// Config describes one load run.
type Config struct {
	// BaseURL is the collector to drive (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// App selects the workload generator: "motd", "stacks", "wiki", or
	// "feeds".
	App string
	// Mix is the read/write mix for motd, stacks, and feeds; ignored by
	// wiki. Empty means workload.Mixed.
	Mix workload.Mix
	// Requests is how many arrivals to offer.
	Requests int
	// Rate is the open-loop arrival rate in requests/second. 0 means no
	// pacing: every arrival is due immediately (a pure burst).
	Rate float64
	// MaxOutstanding bounds concurrently outstanding requests; a due
	// arrival past the bound is shed locally. <=0 means 64.
	MaxOutstanding int
	// Seed seeds the workload generator — same seed, same request stream.
	Seed int64
	// RepeatMix rewrites this fraction of arrivals to the app's fixed pool
	// of recurring read-only request shapes (workload.Repeats) — the
	// steady-state traffic that exercises the auditor's cross-epoch memo
	// cache. 0 disables; must stay within [0,1].
	RepeatMix float64
	// Timeout bounds one request end to end. <=0 means 30s.
	Timeout time.Duration
	// SlowEvery, when >0, sends every Nth request's body through a
	// trickling chunked reader — the slow-client (slowloris-shaped)
	// overload ingredient.
	SlowEvery int
	// SlowChunkDelay is the pause between a slow client's body chunks.
	// <=0 means 2ms.
	SlowChunkDelay time.Duration
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// TrackShards is gateway-target mode: split the ledger per shard using
	// the X-Karousos-Shard response header, and count a 503 that carries
	// Retry-After as Degraded503 (partial-shard degradation, a promised
	// overload/partition outcome) rather than a server error.
	TrackShards bool
}

// ShardLedger is one shard's slice of the accounting in gateway-target
// mode, keyed by the X-Karousos-Shard header the gateway echoes.
type ShardLedger struct {
	OK          int `json:"ok"`
	Shed429     int `json:"shed429"`
	Degraded503 int `json:"degraded503"`
	ServerErr   int `json:"serverErr"`
	Other       int `json:"other"`
}

// Result is one load run's outcome, split the way the overload invariants
// need: every offered arrival is accounted to exactly one bucket, and the
// acked RIDs are the set the sealed log must contain.
type Result struct {
	Offered   int `json:"offered"`
	OK        int `json:"ok"`
	Shed429   int `json:"shed429"`
	ShedLocal int `json:"shedLocal"`
	ServerErr int `json:"serverErr"`
	NetErr    int `json:"netErr"`
	// OtherStatus counts responses outside {200, 429, 5xx-as-ServerErr}.
	// The overload invariant is that this stays zero.
	OtherStatus int `json:"otherStatus"`
	// Degraded503 counts 503s carrying Retry-After in gateway-target mode:
	// a shard's breaker shedding its own keyspace, not a server error.
	Degraded503 int `json:"degraded503,omitempty"`
	// Shards is the per-shard ledger in gateway-target mode, keyed by the
	// X-Karousos-Shard header ("" collects responses without one).
	Shards map[string]*ShardLedger `json:"shards,omitempty"`
	// RetryAfterSeen reports whether at least one 429 carried the hint.
	RetryAfterSeen bool `json:"retryAfterSeen"`
	// AckedRIDs are the RIDs of every 200 — the requests the collector is
	// now on the hook to have made durable.
	AckedRIDs []string      `json:"-"`
	Elapsed   time.Duration `json:"elapsedNanos"`
	Hist      *Histogram    `json:"-"`
	// P50/P99/P999 are the latency quantiles over completed requests, for
	// the JSON summary.
	P50  time.Duration `json:"p50Nanos"`
	P99  time.Duration `json:"p99Nanos"`
	P999 time.Duration `json:"p999Nanos"`
}

// requests builds the deterministic request stream for cfg.
func requests(cfg Config) ([]server.Request, error) {
	reqs, err := workload.For(cfg.App, cfg.Mix, cfg.Requests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return workload.WithRepeats(reqs, cfg.App, cfg.RepeatMix, cfg.Seed)
}

// SlowBody trickles a payload out in small delayed chunks — a client on a
// bad link, or a deliberate slowloris. Sent without a content length so
// the server cannot size-check its way out of reading slowly.
type SlowBody struct {
	Data  []byte
	Delay time.Duration
}

func (s *SlowBody) Read(p []byte) (int, error) {
	if len(s.Data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(s.Delay)
	n := 16
	if n > len(s.Data) {
		n = len(s.Data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, s.Data[:n])
	s.Data = s.Data[n:]
	return n, nil
}

// Run offers cfg.Requests arrivals open-loop and returns the accounting.
// The context cancels pacing between arrivals; requests already in flight
// finish under their own timeout.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	reqs, err := requests(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 64
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	chunkDelay := cfg.SlowChunkDelay
	if chunkDelay <= 0 {
		chunkDelay = 2 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}

	res := &Result{Hist: NewHistogram()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.MaxOutstanding)
	start := time.Now()

	for i, r := range reqs {
		if cfg.Rate > 0 {
			due := start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-ctx.Done():
					res.Elapsed = time.Since(start)
					return res, ctx.Err()
				case <-time.After(d):
				}
			}
		}
		res.Offered++
		select {
		case sem <- struct{}{}:
		default:
			// Open loop: the arrival was due now; with the outstanding
			// bound full it is shed at the source, never queued.
			res.ShedLocal++
			continue
		}
		body, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			<-sem
			return res, err
		}
		slow := cfg.SlowEvery > 0 && i%cfg.SlowEvery == cfg.SlowEvery-1
		wg.Add(1)
		go func(body []byte, slow bool) {
			defer wg.Done()
			defer func() { <-sem }()
			reqStart := time.Now()
			rctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			var rd io.Reader = bytes.NewReader(body)
			if slow {
				rd = &SlowBody{Data: body, Delay: chunkDelay}
			}
			req, err := http.NewRequestWithContext(rctx, http.MethodPost, cfg.BaseURL+"/invoke", rd)
			if err != nil {
				mu.Lock()
				res.NetErr++
				mu.Unlock()
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				mu.Lock()
				res.NetErr++
				mu.Unlock()
				return
			}
			out, readErr := io.ReadAll(resp.Body)
			resp.Body.Close()
			lat := time.Since(reqStart)

			mu.Lock()
			defer mu.Unlock()
			res.Hist.Observe(lat)
			var ledger *ShardLedger
			if cfg.TrackShards {
				if res.Shards == nil {
					res.Shards = make(map[string]*ShardLedger)
				}
				key := resp.Header.Get(gateway.ShardHeader)
				if ledger = res.Shards[key]; ledger == nil {
					ledger = &ShardLedger{}
					res.Shards[key] = ledger
				}
			}
			switch {
			case readErr != nil:
				res.NetErr++
			case resp.StatusCode == http.StatusOK:
				var decoded struct {
					RID string `json:"rid"`
				}
				if err := json.Unmarshal(out, &decoded); err != nil || decoded.RID == "" {
					res.OtherStatus++
					if ledger != nil {
						ledger.Other++
					}
					return
				}
				res.OK++
				res.AckedRIDs = append(res.AckedRIDs, decoded.RID)
				if ledger != nil {
					ledger.OK++
				}
			case resp.StatusCode == http.StatusTooManyRequests:
				res.Shed429++
				if resp.Header.Get("Retry-After") != "" {
					res.RetryAfterSeen = true
				}
				if ledger != nil {
					ledger.Shed429++
				}
			case cfg.TrackShards && resp.StatusCode == http.StatusServiceUnavailable &&
				resp.Header.Get("Retry-After") != "":
				// The gateway's partial-shard degradation: the breaker is
				// shedding exactly this shard's keyspace, with a hint — a
				// promised outcome, not an overload-invariant breach.
				res.Degraded503++
				ledger.Degraded503++
			case resp.StatusCode >= 500:
				res.ServerErr++
				if ledger != nil {
					ledger.ServerErr++
				}
			default:
				res.OtherStatus++
				if ledger != nil {
					ledger.Other++
				}
			}
		}(body, slow)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	sort.Strings(res.AckedRIDs)
	res.P50 = res.Hist.Quantile(0.50)
	res.P99 = res.Hist.Quantile(0.99)
	res.P999 = res.Hist.Quantile(0.999)
	return res, nil
}

// Summary renders the run the way the CLI prints it.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d in %v (%.1f req/s completed)\n", r.Offered, r.Elapsed.Round(time.Millisecond), float64(r.OK)/r.Elapsed.Seconds())
	fmt.Fprintf(&b, "  ok %d  shed429 %d  shedLocal %d  serverErr %d  netErr %d  other %d",
		r.OK, r.Shed429, r.ShedLocal, r.ServerErr, r.NetErr, r.OtherStatus)
	if r.Degraded503 > 0 {
		fmt.Fprintf(&b, "  degraded503 %d", r.Degraded503)
	}
	b.WriteString("\n")
	if len(r.Shards) > 0 {
		keys := make([]string, 0, len(r.Shards))
		for k := range r.Shards {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			l := r.Shards[k]
			fmt.Fprintf(&b, "  shard %-4s ok %d  shed429 %d  degraded503 %d  serverErr %d  other %d\n",
				k, l.OK, l.Shed429, l.Degraded503, l.ServerErr, l.Other)
		}
	}
	fmt.Fprintf(&b, "  latency p50 %v  p99 %v  p99.9 %v  mean %v\n",
		r.Hist.Quantile(0.50).Round(time.Microsecond), r.Hist.Quantile(0.99).Round(time.Microsecond),
		r.Hist.Quantile(0.999).Round(time.Microsecond), r.Hist.Mean().Round(time.Microsecond))
	return b.String()
}
