package netfault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"karousos.dev/karousos/internal/fault"
)

func newBackend(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "payload-payload-payload-payload")
	}))
	t.Cleanup(s.Close)
	return s
}

func clientVia(in *Injector, timeout time.Duration) *http.Client {
	return &http.Client{Transport: in.Transport(nil), Timeout: timeout}
}

func TestArmSpecChecksTheCatalogue(t *testing.T) {
	in := NewInjector()
	if err := in.ArmSpec("no-such-op", ""); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if err := in.ArmSpec("conn-refused:7:3", ""); err != nil {
		t.Fatal(err)
	}
}

func TestConnRefusedNeverForwards(t *testing.T) {
	var hits atomic.Int64
	backend := newBackend(t, &hits)
	in := NewInjector()
	if err := in.Arm(OpConnRefused, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	c := clientVia(in, time.Second)
	_, err := c.Post(backend.URL, "text/plain", strings.NewReader("body"))
	if err == nil {
		t.Fatal("want injected refusal")
	}
	if got := Classify(err); got != ClassRetryable {
		t.Fatalf("Classify = %v, want retryable", got)
	}
	if hits.Load() != 0 {
		t.Fatalf("backend saw %d requests through a refused dial", hits.Load())
	}
	// Healed schedule: next request passes.
	resp, err := c.Get(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Fatalf("hits = %d after recovery", hits.Load())
	}
}

func TestConnResetForwardsThenFails(t *testing.T) {
	var hits atomic.Int64
	backend := newBackend(t, &hits)
	in := NewInjector()
	if err := in.ArmSpec("conn-reset", ""); err != nil {
		t.Fatal(err)
	}
	_, err := clientVia(in, time.Second).Post(backend.URL, "text/plain", strings.NewReader("body"))
	if err == nil {
		t.Fatal("want injected reset")
	}
	if got := Classify(err); got != ClassAmbiguous {
		t.Fatalf("Classify = %v, want ambiguous: the peer executed the request", got)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d: conn-reset must forward before failing", hits.Load())
	}
}

func TestBlackholeRespectsDeadlineAndCap(t *testing.T) {
	var hits atomic.Int64
	backend := newBackend(t, &hits)
	in := NewInjector()
	in.MaxBlock = 40 * time.Millisecond
	if err := in.ArmSpec("blackhole::1", ""); err == nil {
		t.Fatal("empty seed field accepted")
	}
	if err := in.ArmSpec("blackhole:0:1", ""); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := clientVia(in, time.Second).Get(backend.URL)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want blackhole error")
	}
	var fe *FaultError
	if !errors.As(err, &fe) || !fe.Timeout() {
		t.Fatalf("blackhole error %v should look like a timeout", err)
	}
	if got := Classify(err); got != ClassAmbiguous {
		t.Fatalf("Classify = %v, want ambiguous", got)
	}
	if elapsed < 30*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("stalled %v, want ~MaxBlock", elapsed)
	}
	if hits.Load() != 0 {
		t.Fatal("blackhole forwarded the request")
	}

	// A sooner context deadline wins over MaxBlock.
	in2 := NewInjector()
	in2.MaxBlock = 5 * time.Second
	if err := in2.Arm(OpBlackhole, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, backend.URL, nil)
	start = time.Now()
	_, err = clientVia(in2, 0).Do(req)
	if err == nil {
		t.Fatal("want blackhole error")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("context deadline ignored: stalled %v", e)
	}
}

func TestPartialBodyTruncates(t *testing.T) {
	backend := newBackend(t, nil)
	in := NewInjector()
	if err := in.Arm(OpPartialBody, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := clientVia(in, time.Second).Get(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("full body %q delivered through partial-body", body)
	}
	if got := Classify(err); got != ClassAmbiguous {
		t.Fatalf("Classify = %v, want ambiguous", got)
	}
	if len(body) == 0 || len(body) >= len("payload-payload-payload-payload") {
		t.Fatalf("got %d body bytes, want a strict prefix", len(body))
	}
}

func TestFlapDeterministicSchedule(t *testing.T) {
	schedule := func() []bool {
		backend := newBackend(t, nil)
		in := NewInjector()
		if err := in.ArmSpec("flap:23", ""); err != nil {
			t.Fatal(err)
		}
		c := clientVia(in, time.Second)
		var out []bool
		for i := 0; i < 40; i++ {
			resp, err := c.Get(backend.URL)
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := schedule(), schedule()
	var pass, fail int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at call %d: same seed must fire identically", i)
		}
		if a[i] {
			pass++
		} else {
			fail++
		}
	}
	if pass == 0 || fail == 0 {
		t.Fatalf("flap should mix passes and failures, got pass=%d fail=%d", pass, fail)
	}
}

func TestTargetFilterAndHealTarget(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	backendA := newBackend(t, &hitsA)
	backendB := newBackend(t, &hitsB)
	hostA := strings.TrimPrefix(backendA.URL, "http://")
	in := NewInjector()
	if err := in.ArmSpec("conn-refused:0:-1", hostA); err != nil {
		t.Fatal(err)
	}
	c := clientVia(in, time.Second)
	if _, err := c.Get(backendA.URL); err == nil {
		t.Fatal("filtered target not faulted")
	}
	resp, err := c.Get(backendB.URL)
	if err != nil {
		t.Fatalf("unfiltered target faulted: %v", err)
	}
	resp.Body.Close()
	in.HealTarget(hostA)
	resp, err = c.Get(backendA.URL)
	if err != nil {
		t.Fatalf("healed target still faulted: %v", err)
	}
	resp.Body.Close()
	if fired := in.Fired()[OpConnRefused]; fired != 1 {
		t.Fatalf("Fired[conn-refused] = %d after heal, want 1", fired)
	}
}

func TestListenerFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	in := NewInjector()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, strings.Repeat("x", 4096))
	})}
	go srv.Serve(in.Listener(ln))
	t.Cleanup(func() { srv.Close() })
	url := "http://" + ln.Addr().String()

	// conn-reset through the listener: the handler runs, the client loses
	// the response.
	if err := in.Arm(OpConnReset, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	// Fresh client per probe: a pooled conn would dodge the next Accept.
	c := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(url)
	if err == nil {
		// The reset may surface as a read error on the body instead.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("want reset through faulted listener")
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d: listener conn-reset must let the request through", hits.Load())
	}

	// Healed: normal service.
	resp, err = c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := in.Counts()[CallAccept]; got < 2 {
		t.Fatalf("Counts[accept] = %d, want >= 2", got)
	}
}

func TestClassifyLadder(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{syscall.ECONNREFUSED, ClassRetryable},
		{&net.OpError{Op: "dial", Err: errors.New("host unreachable")}, ClassRetryable},
		{&FaultError{Op: OpConnRefused, Err: syscall.ECONNREFUSED}, ClassRetryable},
		{&FaultError{Op: OpConnReset, Forwarded: true, Err: syscall.ECONNRESET}, ClassAmbiguous},
		{context.DeadlineExceeded, ClassAmbiguous},
		{io.ErrUnexpectedEOF, ClassAmbiguous},
		{errors.New("mystery"), ClassAmbiguous},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
