package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/netfault"
)

// Tuning bounds the gateway's resilience machinery. The zero value means
// defaults; every knob has one.
type Tuning struct {
	// PerTryTimeout bounds one proxied attempt (default 2s). This is what
	// turns a blackholed backend into a classified, breaker-countable
	// failure instead of a hung client.
	PerTryTimeout time.Duration
	// MaxRetries bounds extra attempts per /invoke after the first
	// (default 2). Only provably-unsent requests are ever retried —
	// netfault.ClassRetryable — because /invoke is not idempotent.
	MaxRetries int
	// BreakerFailures consecutive transport failures open a shard's
	// circuit (default 5); BreakerOpenFor is the open window before a
	// half-open probe (default 1s).
	BreakerFailures int
	BreakerOpenFor  time.Duration
	// RetryAfter is the hint stamped on gateway-degraded 503s (default 1s).
	RetryAfter time.Duration
	// Backoff shapes the retry delays (zero = 10ms base, 250ms max).
	Backoff fault.Backoff
}

func (t Tuning) withDefaults() Tuning {
	if t.PerTryTimeout <= 0 {
		t.PerTryTimeout = 2 * time.Second
	}
	if t.MaxRetries < 0 {
		t.MaxRetries = 0
	} else if t.MaxRetries == 0 {
		t.MaxRetries = 2
	}
	if t.RetryAfter <= 0 {
		t.RetryAfter = time.Second
	}
	if t.Backoff.Base <= 0 {
		t.Backoff.Base = 10 * time.Millisecond
	}
	if t.Backoff.Max <= 0 {
		t.Backoff.Max = 250 * time.Millisecond
	}
	return t
}

// proxied is one backend response buffered in full. Buffering before
// writing to the client is what keeps a mid-body connection cut from
// tearing an already-committed 200: a truncated read surfaces here as a
// transport failure and the client gets a clean 503 instead.
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// maxProxyBody bounds one buffered backend response.
const maxProxyBody = 4 << 20

// forward proxies one /invoke body to shard s with per-try timeouts,
// classified retries under the global budget, and breaker accounting.
func (g *Gateway) forward(ctx context.Context, s int, raw []byte) (*proxied, error) {
	g.budget.earn()
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := g.tryOnce(ctx, s, raw)
		if err == nil {
			g.breakers[s].onSuccess()
			return res, nil
		}
		g.breakers[s].onFailure()
		lastErr = err
		// The ladder decides: only a provably-unsent request may go again.
		if netfault.Classify(err) != netfault.ClassRetryable {
			return nil, err
		}
		if attempt >= g.tuning.MaxRetries || ctx.Err() != nil {
			return nil, err
		}
		if !g.budget.spend() {
			g.count(s, func(c *ShardCounters) { c.BudgetDenied++ })
			return nil, err
		}
		g.count(s, func(c *ShardCounters) { c.Retries++ })
		if err := g.tuning.Backoff.Wait(ctx, attempt); err != nil {
			return nil, lastErr
		}
	}
}

// tryOnce performs one bounded proxy attempt and buffers the response.
func (g *Gateway) tryOnce(ctx context.Context, s int, raw []byte) (*proxied, error) {
	tctx, cancel := context.WithTimeout(ctx, g.tuning.PerTryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, g.backend(s)+"/invoke", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		// Status arrived, body did not: the backend executed the request
		// but the link died mid-response. Ambiguous — never retried.
		return nil, &netfault.FaultError{
			Op: "partial-body", Call: netfault.CallRequest, Target: g.backend(s),
			Forwarded: true, Err: err,
		}
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// degrade answers a client whose shard cannot be reached: 503 with a
// Retry-After hint. One dark shard degrades only its own keyspace — the
// caller can retry after the hint, and every other shard keeps serving.
func (g *Gateway) degrade(w http.ResponseWriter, s int, why string) {
	w.Header().Set(ShardHeader, strconv.Itoa(s))
	w.Header().Set("Retry-After", strconv.Itoa(int((g.tuning.RetryAfter+time.Second-1)/time.Second)))
	http.Error(w, fmt.Sprintf("shard %d unavailable: %s", s, why), http.StatusServiceUnavailable)
}

// probeGet GETs url under the per-try timeout. The returned body cancels
// the timeout when closed.
func (g *Gateway) probeGet(ctx context.Context, url string) (*http.Response, error) {
	tctx, cancel := context.WithTimeout(ctx, g.tuning.PerTryTimeout)
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
