package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/value"
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
	a, err := requests(Config{App: "wiki", Requests: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := requests(Config{App: "wiki", Requests: 20, Seed: 7})
	for i := range a {
		if !value.Equal(a[i].Input, b[i].Input) {
			t.Fatalf("request %d differs across same-seed generations", i)
		}
	}
	if _, err := requests(Config{App: "nope", Requests: 1}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestRunAccountsEveryArrival drives a real collector and checks the
// load-run ledger balances: every offered arrival lands in exactly one
// bucket, every 200 carries a RID, and the sealed log holds every acked
// request.
func TestRunAccountsEveryArrival(t *testing.T) {
	dir := t.TempDir()
	c, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:        ts.URL,
		App:            "motd",
		Requests:       48,
		MaxOutstanding: 8,
		Seed:           3,
		Client:         ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 48 {
		t.Fatalf("offered %d, want 48", res.Offered)
	}
	if got := res.OK + res.Shed429 + res.ShedLocal + res.ServerErr + res.NetErr + res.OtherStatus; got != 48 {
		t.Fatalf("ledger does not balance: %+v sums to %d", res, got)
	}
	if res.ServerErr != 0 || res.OtherStatus != 0 || res.NetErr != 0 {
		t.Fatalf("unexpected failures: %+v", res)
	}
	if len(res.AckedRIDs) != res.OK {
		t.Fatalf("%d acked RIDs for %d OKs", len(res.AckedRIDs), res.OK)
	}
	if res.Hist.Count() == 0 || res.P50 <= 0 {
		t.Fatalf("no latency recorded: %+v", res)
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
	for _, rid := range res.AckedRIDs {
		if !inLog[rid] {
			t.Fatalf("acked rid %s missing from the sealed log", rid)
		}
	}
}

// TestOpenLoopShedsLocally: rate 0 offers everything at once; with one
// outstanding slot most arrivals must shed at the source, not queue.
func TestOpenLoopShedsLocally(t *testing.T) {
	c, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:        ts.URL,
		App:            "motd",
		Requests:       64,
		MaxOutstanding: 1,
		Client:         ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedLocal == 0 {
		t.Fatalf("burst with 1 outstanding slot shed nothing: %+v", res)
	}
	if res.OK+res.ShedLocal+res.Shed429 != 64 {
		t.Fatalf("ledger: %+v", res)
	}
}
