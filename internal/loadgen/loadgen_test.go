package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	// Log buckets are pessimistic by at most one growth step.
	if p50 < 500*time.Millisecond || p50 > 650*time.Millisecond {
		t.Fatalf("p50 = %v, want ~500ms within one bucket", p50)
	}
	if p99 < 990*time.Millisecond || p99 > 1300*time.Millisecond {
		t.Fatalf("p99 = %v, want ~990ms within one bucket", p99)
	}
	if p99 < p50 {
		t.Fatalf("quantiles not monotone: p50 %v > p99 %v", p50, p99)
	}
	if h.Mean() != 500500*time.Microsecond {
		t.Fatalf("mean = %v, want exact 500.5ms", h.Mean())
	}
	if got := NewHistogram().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
}

func TestDeterministicStream(t *testing.T) {
	a, err := Stream("wiki", "", 20, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Stream("wiki", "", 20, 7, 0)
	for i := range a {
		if !value.Equal(a[i].Input, b[i].Input) {
			t.Fatalf("request %d differs across same-seed generations", i)
		}
	}
	if _, err := Stream("nope", "", 1, 0, 0); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Stream("motd", "", 4, 0, 1.5); err == nil {
		t.Fatal("repeat fraction 1.5 accepted")
	}
}

// TestRunAccountsEveryArrival drives a real collector through each loop
// and checks the ledger balances: every offered arrival lands in exactly
// one bucket, every 200 carries a RID, the sealed log holds every acked
// request, and the hooks see each arrival once — in the closed loop,
// strictly interleaved.
func TestRunAccountsEveryArrival(t *testing.T) {
	for name, cfg := range map[string]Config{
		"closed": {},
		"burst":  {MaxOutstanding: 8},
		"paced":  {MaxOutstanding: 8, Rate: 4000},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 16})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()

			var mu sync.Mutex
			var events []string
			note := func(format string, args ...any) {
				mu.Lock()
				events = append(events, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			cfg.BaseURL, cfg.Client = ts.URL, ts.Client()
			cfg.Before = func(i int) error { note("before %d", i); return nil }
			cfg.Outcome = func(i int, o Outcome) {
				if o.Class == Served && o.RID == "" {
					t.Errorf("arrival %d served without a rid: %s", i, o)
				}
				note("outcome %d", i)
			}
			res, err := Run(context.Background(), cfg, workload.MOTD(48, workload.Mixed, 3))
			if err != nil {
				t.Fatal(err)
			}
			if res.Offered != 48 {
				t.Fatalf("offered %d, want 48", res.Offered)
			}
			if got := res.Served + res.Shed + res.Degraded + res.Other + res.ShedLocal + res.NetErr; got != 48 {
				t.Fatalf("ledger does not balance: %+v sums to %d", res, got)
			}
			if res.Degraded != 0 || res.Other != 0 || res.NetErr != 0 || res.Shards != nil {
				t.Fatalf("unexpected outcomes from a bare collector: %+v", res)
			}
			if len(res.Acked[""]) != res.Served || len(res.Acked) != 1 {
				t.Fatalf("%d acked RIDs for %d served", len(res.Acked[""]), res.Served)
			}
			if res.Hist.Count() == 0 || res.P50 <= 0 {
				t.Fatalf("no latency recorded: %+v", res)
			}
			if got, want := len(events), 48+48-res.ShedLocal; got != want {
				t.Fatalf("%d hook calls, want %d (one before per arrival, one outcome per sent one)", got, want)
			}
			if name == "closed" {
				if res.Served != 48 {
					t.Fatalf("closed loop served %d of 48: %+v", res.Served, res)
				}
				for i := 0; i < 48; i++ {
					if events[2*i] != fmt.Sprint("before ", i) || events[2*i+1] != fmt.Sprint("outcome ", i) {
						t.Fatalf("closed loop hooks out of order at arrival %d: %v", i, events[2*i:2*i+2])
					}
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			// Every acked RID appears as a REQ in some sealed epoch.
			sealed, err := epochlog.ListSealed(dir)
			if err != nil {
				t.Fatal(err)
			}
			inLog := map[string]bool{}
			for _, m := range sealed {
				tr, _, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, rid := range tr.RIDs() {
					inLog[rid] = true
				}
			}
			for _, rid := range res.Acked[""] {
				if !inLog[rid] {
					t.Fatalf("acked rid %s missing from the sealed log", rid)
				}
			}
		})
	}
}

// TestOpenLoopShedsLocally: rate 0 offers everything at once; with two
// outstanding slots most arrivals must shed at the source, not queue.
func TestOpenLoopShedsLocally(t *testing.T) {
	c, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	res, err := Run(context.Background(), Config{BaseURL: ts.URL, MaxOutstanding: 2, Client: ts.Client()},
		workload.MOTD(64, workload.Mixed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedLocal == 0 {
		t.Fatalf("burst with 2 outstanding slots shed nothing: %+v", res)
	}
	if res.Served+res.ShedLocal+res.Shed != 64 {
		t.Fatalf("ledger: %+v", res)
	}
}

// TestClassification scripts one answer per arrival and checks the bucket
// each lands in: a 503 is Degraded only with Retry-After, with or without
// a shard header; the per-shard split follows the header alone.
func TestClassification(t *testing.T) {
	answers := []struct {
		status       int
		shard, retry string
		body         string
		want         Class
	}{
		{status: 200, body: `{"rid":"r1"}`, want: Served},
		{status: 200, shard: "1", body: `{"rid":"r2"}`, want: Served},
		{status: 200, body: `{}`, want: Other}, // acknowledges nothing
		{status: 429, shard: "0", retry: "1", want: Shed},
		{status: 503, retry: "1", want: Degraded},
		{status: 503, shard: "1", retry: "1", want: Degraded},
		{status: 503, shard: "1", want: Other}, // unhinted
		{status: 500, want: Other},
	}
	var next atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := answers[next.Add(1)-1]
		if a.shard != "" {
			w.Header().Set(gateway.ShardHeader, a.shard)
		}
		if a.retry != "" {
			w.Header().Set("Retry-After", a.retry)
		}
		w.WriteHeader(a.status)
		fmt.Fprint(w, a.body)
	}))
	defer ts.Close()

	var got []Outcome
	res, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Client: ts.Client(),
		Outcome: func(i int, o Outcome) { got = append(got, o) },
	}, workload.Wiki(len(answers), 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if o := got[i]; o.Class != a.want || o.Status != a.status || o.Shard != a.shard || o.Hinted != (a.retry != "") {
			t.Errorf("arrival %d: %s (class %d), want class %d", i, o, o.Class, a.want)
		}
	}
	if want := (Ledger{Served: 2, Shed: 1, Degraded: 2, Other: 3}); res.Ledger != want {
		t.Errorf("ledger %+v, want %+v", res.Ledger, want)
	}
	if len(res.Shards) != 2 || *res.Shards["0"] != (Ledger{Shed: 1}) || *res.Shards["1"] != (Ledger{Served: 1, Degraded: 1, Other: 1}) {
		t.Errorf("per-shard split: %+v", res.Shards)
	}
	if fmt.Sprint(res.Acked) != "map[:[r1] 1:[r2]]" {
		t.Errorf("acked: %v", res.Acked)
	}

	// No answer at all is its own bucket, outside the ledger.
	ts.Close()
	res, err = Run(context.Background(), Config{BaseURL: ts.URL}, workload.Wiki(3, 1))
	if err != nil || res.NetErr != 3 || res.Ledger != (Ledger{}) {
		t.Errorf("dead server: %+v, %v", res, err)
	}
}

// TestCancelledRunReturnsCompleteLedger cancels an open-loop run while
// requests are in flight and reads the ledger at once: Run must have
// waited for every request it sent (run under -race).
func TestCancelledRunReturnsCompleteLedger(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		fmt.Fprint(w, `{"rid":"r"}`)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, Config{
		BaseURL: ts.URL, Client: ts.Client(), Rate: 1000, MaxOutstanding: 16,
		Before: func(i int) error {
			if i == 6 {
				cancel()
			}
			return nil
		},
	}, workload.Wiki(64, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Offered != 7 || res.Served != 7 {
		t.Fatalf("cancelled at arrival 6 with 7 offered: ledger %+v (offered %d) is incomplete", res.Ledger, res.Offered)
	}
}
