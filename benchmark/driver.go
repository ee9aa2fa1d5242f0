package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// load describes one drive of the system under test.
//
// Open loop (Rate > 0): request i is due at start + i/Rate whether or not
// earlier requests have finished. Arrivals are never shed: a due request
// waits for one of Conns connections, and its latency is counted from when
// it was due, so a stall in the server shows up in the latency of every
// request that queued behind it. Closed loop (Rate == 0): each of Conns
// clients sends its next request when the previous one completes, and
// latency is counted from the send.
type load struct {
	URL    string
	Client *http.Client
	Conns  int
	Rate   float64  // requests/s; 0 = closed loop
	Bodies [][]byte // one POST body per request, in arrival order
	Rec    *recorder
}

// sample is one request's outcome, times relative to the drive's start.
type sample struct {
	Due, Sent, Done time.Duration
	Status          int // 0 on a transport error
	Err             error
	RID             string // collector-assigned, from the 200's body
	Shard           string // gateway's routing header, "" when driving a collector directly
}

type driveResult struct {
	Samples []sample
	Elapsed time.Duration
}

// drive sends every body and returns one sample per request, in arrival
// order.
func drive(l load) driveResult {
	samples := make([]sample, len(l.Bodies))
	var interval time.Duration
	if l.Rate > 0 {
		interval = time.Duration(float64(time.Second) / l.Rate)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < l.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(l.Bodies) {
					return
				}
				s := &samples[i]
				if interval > 0 {
					s.Due = time.Duration(i) * interval
					if wait := s.Due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					s.Sent = time.Since(start)
				} else {
					s.Sent = time.Since(start)
					s.Due = s.Sent
				}
				l.send(i, start, s)
			}
		}()
	}
	wg.Wait()
	return driveResult{Samples: samples, Elapsed: time.Since(start)}
}

func (l load) send(i int, start time.Time, s *sample) {
	req, err := http.NewRequest(http.MethodPost, l.URL+"/invoke", bytes.NewReader(l.Bodies[i]))
	if err != nil {
		s.Err, s.Done = err, time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	span := l.Rec.openAt(spanRequest, "r"+strconv.Itoa(i), noParent, start.Add(s.Due))
	if l.Rec != nil {
		req.Header.Set(reqIDHeader, strconv.FormatInt(span, 10))
	}
	resp, err := l.Client.Do(req)
	if err != nil {
		s.Err, s.Done = err, time.Since(start)
		l.Rec.close(span)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Done = time.Since(start)
	l.Rec.close(span)
	s.Status, s.Shard = resp.StatusCode, resp.Header.Get("X-Karousos-Shard")
	if err != nil {
		s.Err = err
		return
	}
	if resp.StatusCode == http.StatusOK {
		var ack struct {
			RID string `json:"rid"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.RID == "" {
			s.Err = fmt.Errorf("driver: 200 without a rid: %q", body)
			return
		}
		s.RID = ack.RID
	}
}

func (s sample) ok() bool { return s.Err == nil && s.Status == http.StatusOK }

// latencies returns the sorted due→done latencies of the acknowledged
// requests, and the sorted generator lateness (due→sent) of all of them.
func (r driveResult) latencies() (acked, late []time.Duration) {
	for _, s := range r.Samples {
		late = append(late, s.Sent-s.Due)
		if s.ok() {
			acked = append(acked, s.Done-s.Due)
		}
	}
	return sortDur(acked), sortDur(late)
}

func (r driveResult) failed() int {
	n := 0
	for _, s := range r.Samples {
		if !s.ok() {
			n++
		}
	}
	return n
}

// newClient returns a client that holds at most conns connections to the
// target and keeps them alive, so the driver never opens more sockets than
// it has clients.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}
