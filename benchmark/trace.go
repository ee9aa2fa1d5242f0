package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"karousos.dev/karousos/internal/iofault"
)

// Span names. The prefix before the dot is the layer (= module name) the
// time is charged to.
const (
	spanRequest   = "driver.request"          // client: due/sent → 200
	spanGateway   = "gateway.handle"          // middleware round the gateway's handler
	spanRoundTrip = "collectorhttp.roundtrip" // gateway → shard backend RoundTripper
	spanInvoke    = "collectorhttp.invoke"    // middleware round Collector.Handler()
	spanWrite     = "epochlog.write"          // File.Write through the timing FS
	spanFsync     = "epochlog.fsync"          // File.Sync through the timing FS
	spanSeal      = "epochlog.seal"           // manifest create → directory fsync
	spanFSRead    = "epochlog.fsread"         // ReadFile through the timing FS (auditor side)
	spanEpoch     = "auditd.epoch"            // one epoch of the audit chain
	spanRead      = "epochlog.read"           // epochlog.ReadSealed
	spanDecode    = "advice.decode"           // advice.UnmarshalBinary
	spanAudit     = "verifier.audit"          // verifier.AuditCarry
	reqIDHeader   = "X-Bench-Req"             // carries the driver's request index to the middlewares
	noParent      = int64(-1)
	fsSpanID      = "fs" // FS spans belong to a commit batch, not to one request
)

// span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is the index of the causing span in the
// recorder's list (-1 for a root); ID ties the spans of one request or one
// epoch together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
	ID     string `json:"id"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// tracing-off state: every method is a no-op, so the untraced path pays one
// nil check per boundary.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open reserves a span's slot so children can name it as parent before it
// ends.
func (r *recorder) open(name, id string, parent int64) int64 {
	if r == nil {
		return noParent
	}
	return r.openAt(name, id, parent, time.Now())
}

// openAt is open with an explicit start — the driver's request span starts
// when the request was due, not when it was sent.
func (r *recorder) openAt(name, id string, parent int64, start time.Time) int64 {
	if r == nil {
		return noParent
	}
	s := span{Name: name, Start: int64(start.Sub(r.t0)), Parent: parent, ID: id}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	i := int64(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

func (r *recorder) close(i int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// add records a finished span whose start was taken with now().
func (r *recorder) add(name, id string, parent, start int64) {
	if r == nil {
		return
	}
	s := span{Name: name, Start: start, End: r.now(), Parent: parent, ID: id}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) idOf(i int64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[i].ID
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// durations returns every closed span of the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// checkNesting verifies the trace's shape: every child lies inside its
// parent, shares its id, and no parent's children cover more time than the
// parent lasted (self time ≥ 0).
func checkNesting(spans []span) error {
	covered := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s %s) ends before it starts", i, s.Name, s.ID)
		}
		if s.Parent == noParent {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("trace: span %d (%s %s) [%d,%d] escapes parent %s [%d,%d]",
				i, s.Name, s.ID, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.ID != p.ID {
			return fmt.Errorf("trace: span %d (%s) has id %q, parent %s has %q", i, s.Name, s.ID, p.Name, p.ID)
		}
		covered[s.Parent] += s.End - s.Start
	}
	for i, s := range spans {
		if covered[i] > s.End-s.Start {
			return fmt.Errorf("trace: span %d (%s %s) has negative self time: children cover %dns of %dns",
				i, s.Name, s.ID, covered[i], s.End-s.Start)
		}
	}
	return nil
}

// selfTimes returns, for every span of the given name, its duration minus
// the time its direct children cover.
func selfTimes(spans []span, name string) []time.Duration {
	covered := make(map[int64]int64)
	for _, s := range spans {
		if s.Parent != noParent {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start-covered[int64(i)]))
		}
	}
	return out
}

// busyIndex answers "how much of [a,b] did any of these spans cover" — the
// FS spans belong to commit batches, not requests, so a request's FS share
// is the part of its interval during which the log was writing or syncing.
type busyIndex struct {
	starts, ends []int64 // merged, disjoint, ascending
	prefix       []int64 // prefix[i] = total length of intervals before i
}

func newBusyIndex(spans []span, names ...string) *busyIndex {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var iv []span
	for _, s := range spans {
		if want[s.Name] {
			iv = append(iv, s)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	b := &busyIndex{}
	for _, s := range iv {
		if n := len(b.ends); n > 0 && s.Start <= b.ends[n-1] {
			if s.End > b.ends[n-1] {
				b.ends[n-1] = s.End
			}
			continue
		}
		b.starts = append(b.starts, s.Start)
		b.ends = append(b.ends, s.End)
	}
	b.prefix = make([]int64, len(b.starts)+1)
	for i := range b.starts {
		b.prefix[i+1] = b.prefix[i] + b.ends[i] - b.starts[i]
	}
	return b
}

// before is the busy time in (-inf, t].
func (b *busyIndex) before(t int64) int64 {
	i := sort.Search(len(b.starts), func(i int) bool { return b.starts[i] > t })
	if i == 0 {
		return 0
	}
	total := b.prefix[i-1]
	end := b.ends[i-1]
	if t < end {
		end = t
	}
	return total + end - b.starts[i-1]
}

func (b *busyIndex) overlap(start, end int64) int64 { return b.before(end) - b.before(start) }

// ---- boundary instrumentation -------------------------------------------

type ctxKey struct{}

// spanRef is what a middleware leaves in the request context for the layers
// below it.
type spanRef struct {
	index int64
	id    string
}

// traceHandler records one span per request round next, parented on the
// driver's request span (whose index the driver sends in reqIDHeader), and
// leaves its own reference in the context for the layers below.
func traceHandler(rec *recorder, name string, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r) // not one of the driver's requests
			return
		}
		id := rec.idOf(parent)
		i := rec.open(name, id, parent)
		ctx := context.WithValue(r.Context(), ctxKey{}, spanRef{index: i, id: id})
		next.ServeHTTP(w, r.WithContext(ctx))
		rec.close(i)
	})
}

// timingTransport is the gateway → backend hop. The gateway derives the
// proxied request's context from the incoming one, so the gateway
// middleware's span reference is still there to parent on.
type timingTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(ctxKey{}).(spanRef)
	if !ok {
		return t.next.RoundTrip(req)
	}
	// The span ends when the response headers arrive; the collector writes
	// its small JSON body in the same flush, so the body read the gateway
	// does next is charged to the gateway.
	start := t.rec.now()
	resp, err := t.next.RoundTrip(req)
	t.rec.add(spanRoundTrip, ref.id, ref.index, start)
	return resp, err
}

// timingFS wraps the real filesystem behind iofault.FS — the plug point
// Config.FS gives every layer that touches disk — and counts and times the
// calls the epoch log makes. It exists only in a traced run.
type timingFS struct {
	iofault.FS
	rec          *recorder
	bytesWritten atomic.Int64
	fsyncs       atomic.Int64

	mu       sync.Mutex
	sealFrom map[string]sealStart // dir → pending manifest write
}

type sealStart struct {
	at int64
	id string
}

func newTimingFS(rec *recorder) *timingFS {
	return &timingFS{FS: iofault.OS, rec: rec, sealFrom: make(map[string]sealStart)}
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	var seq uint64
	if _, err := fmt.Sscanf(filepath.Base(name), "ep%d.manifest", &seq); err == nil && flag&os.O_CREATE != 0 {
		dir := filepath.Dir(name)
		f.mu.Lock()
		f.sealFrom[dir] = sealStart{at: f.rec.now(), id: epochSpanID(dir, seq)}
		f.mu.Unlock()
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	start := f.rec.now()
	b, err := f.FS.ReadFile(name)
	f.rec.add(spanFSRead, fsSpanID, noParent, start)
	return b, err
}

func (f *timingFS) SyncDir(dir string) error {
	start := f.rec.now()
	err := f.FS.SyncDir(dir)
	f.fsyncs.Add(1)
	f.rec.add(spanFsync, fsSpanID, noParent, start)
	f.mu.Lock()
	from, ok := f.sealFrom[dir]
	delete(f.sealFrom, dir)
	f.mu.Unlock()
	if ok {
		f.rec.add(spanSeal, from.id, noParent, from.at)
	}
	return err
}

// epochSpanID names one epoch of one log, e.g. "shard-00/ep12"; the seal
// span and the audit chain's spans of that epoch share it.
func epochSpanID(dir string, seq uint64) string {
	return fmt.Sprintf("%s/ep%d", filepath.Base(dir), seq)
}

type timedFile struct {
	iofault.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.fs.rec.now()
	n, err := f.File.Write(p)
	f.fs.bytesWritten.Add(int64(n))
	f.fs.rec.add(spanWrite, fsSpanID, noParent, start)
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.fs.rec.now()
	err := f.File.Sync()
	f.fs.fsyncs.Add(1)
	f.fs.rec.add(spanFsync, fsSpanID, noParent, start)
	return err
}
