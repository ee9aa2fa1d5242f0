package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func ackHandler(stallOn int64, stall time.Duration) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallOn {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"rid":"r1","output":null}`))
	})
}

// A 50 ms stall in the server must show up in the latency of the requests
// that were due during it — they queue for the one connection and are timed
// from when they were due — even though each of them is served quickly once
// sent. A generator that timed from the send, or shed at its bound, would
// report them as fast or not at all.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stallAt, stall = 10, 50 * time.Millisecond
	ts := httptest.NewServer(ackHandler(stallAt+1, stall))
	defer ts.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	bodies := make([][]byte, 40)
	for i := range bodies {
		bodies[i] = []byte(`{"input":null}`)
	}
	res := drive(load{URL: ts.URL, Client: client, Conns: 1, Rate: 200, Bodies: bodies}) // one due every 5 ms
	if n := res.failed(); n != 0 {
		t.Fatalf("%d of %d requests failed: %+v", n, len(res.Samples), res.Samples)
	}
	if len(res.Samples) != len(bodies) {
		t.Fatalf("got %d samples for %d arrivals: an arrival was shed", len(res.Samples), len(bodies))
	}
	next := res.Samples[stallAt+1] // due 5 ms into the stall
	if waited := next.Sent - next.Due; waited < 30*time.Millisecond {
		t.Errorf("request after the stall was sent %v after it was due, want ≥ 30ms of queueing", waited)
	}
	if latency := next.Done - next.Due; latency < 30*time.Millisecond {
		t.Errorf("request after the stall has latency %v from due, want the stall (≥ 30ms) in it", latency)
	}
	if service := next.Done - next.Sent; service > 25*time.Millisecond {
		t.Errorf("request after the stall took %v from send to 200; the test needs it to be served quickly", service)
	}
	before := res.Samples[stallAt-1]
	if latency := before.Done - before.Due; latency > 25*time.Millisecond {
		t.Errorf("request before the stall has latency %v", latency)
	}
	_, late := res.latencies()
	if worst := late[len(late)-1]; worst < 30*time.Millisecond {
		t.Errorf("reported generator lateness peaks at %v, want the queueing behind the stall", worst)
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	ts := httptest.NewServer(ackHandler(0, 0))
	defer ts.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	bodies := make([][]byte, 50)
	for i := range bodies {
		bodies[i] = []byte(`{"input":null}`)
	}
	res := drive(load{URL: ts.URL, Client: client, Conns: 2, Bodies: bodies})
	acked, late := res.latencies()
	if len(acked) != len(bodies) {
		t.Fatalf("%d of %d acknowledged", len(acked), len(bodies))
	}
	if late[len(late)-1] != 0 {
		t.Errorf("closed loop reports lateness %v; it has no schedule to be late against", late[len(late)-1])
	}
	for i, s := range res.Samples {
		if s.RID != "r1" {
			t.Fatalf("sample %d: rid %q", i, s.RID)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

func TestNestingCheckCatchesEscapingChild(t *testing.T) {
	good := []span{
		{Name: spanRequest, Start: 0, End: 100, Parent: noParent, ID: "r0"},
		{Name: spanInvoke, Start: 10, End: 90, Parent: 0, ID: "r0"},
	}
	if err := checkNesting(good); err != nil {
		t.Errorf("nested trace rejected: %v", err)
	}
	bad := append([]span(nil), good...)
	bad[1].End = 101
	if err := checkNesting(bad); err == nil {
		t.Error("child ending after its parent passed the nesting check")
	}
	over := append(good, span{Name: spanInvoke, Start: 10, End: 90, Parent: 0, ID: "r0"})
	if err := checkNesting(over); err == nil {
		t.Error("children covering more than the parent passed the nesting check")
	}
	if self := selfTimes(good, spanRequest); len(self) != 1 || self[0] != 20 {
		t.Errorf("self time = %v, want [20ns]", self)
	}
	busy := newBusyIndex([]span{{Name: spanFsync, Start: 20, End: 40}, {Name: spanWrite, Start: 30, End: 50}, {Name: spanFsync, Start: 70, End: 80}}, spanFsync, spanWrite)
	if got := busy.overlap(25, 75); got != 30 {
		t.Errorf("busy overlap = %d, want 30", got)
	}
}
