package netfault

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// Transport wraps an http.RoundTripper so every round trip consults the
// fault schedule. base nil means http.DefaultTransport. The match target
// is "host/path", so ArmSpec's targetContains can pin a fault to one
// backend (by host:port) or one route (by path).
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{in: in, base: base}
}

type faultTransport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	target := req.URL.Host + req.URL.Path
	a := t.in.Next(CallRequest, target)
	if a == nil {
		return t.base.RoundTrip(req)
	}
	switch a.Op {
	case OpConnRefused, OpFlap:
		// Refused at dial: the request body was never read, no byte
		// reached the peer. Close the body ourselves per the
		// RoundTripper contract.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errFor(a, CallRequest, target)
	case OpConnReset:
		// The worst case for retry safety: forward the request so the
		// peer really executes it, then lose the response to a reset.
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errFor(a, CallRequest, target)
	case OpBlackhole:
		// A partitioned link: the request vanishes (never forwarded —
		// mid-flight drops are conn-reset's job) and the caller stalls
		// until its deadline or the injector's cap.
		if req.Body != nil {
			req.Body.Close()
		}
		stall(req.Context(), t.in.maxBlock())
		return nil, errFor(a, CallRequest, target)
	case OpSlowResponse:
		stall(req.Context(), t.in.slowFor(a))
		return t.base.RoundTrip(req)
	case OpPartialBody:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return truncateBody(resp, errFor(a, CallRequest, target)), nil
	}
	return t.base.RoundTrip(req)
}

// stall blocks for d or until ctx is done, whichever is sooner.
func stall(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// truncateBody delivers roughly half the response body, then fails the
// read with the injected error — a connection dying mid-transfer after
// the status line already committed the client to this response.
func truncateBody(resp *http.Response, ferr *FaultError) *http.Response {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) == 0 {
		resp.Body = &truncatedBody{err: ferr}
		resp.ContentLength = -1
		return resp
	}
	resp.Body = &truncatedBody{r: bytes.NewReader(body[:len(body)/2]), err: ferr}
	resp.ContentLength = -1
	return resp
}

type truncatedBody struct {
	r   *bytes.Reader
	err error
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.r != nil {
		n, err := b.r.Read(p)
		if err == nil {
			return n, nil
		}
		if n > 0 {
			return n, nil
		}
	}
	return 0, b.err
}

func (b *truncatedBody) Close() error { return nil }
