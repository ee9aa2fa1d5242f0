// Package collectorhttp serves an auditable application as a real network
// endpoint and records the audit's ground truth as it serves.
//
// The trust split mirrors the paper's deployment (§2.1): the trace — which
// requests arrived and which responses left — is recorded by the collector
// itself on the trusted path, appended to a durable epoch log before and
// after each invocation. The advice is untrusted: the serving runtime
// produces it, and nothing the advice says can change what the trace
// records. The collector embeds the runtime, so the advice reaches the log
// only through the drain at every seal.
//
// The serving path is built to survive overload (DESIGN.md §14). Admission
// is bounded: past a window of in-flight requests and queued body bytes,
// arrivals are shed immediately with 429 and a jittered Retry-After —
// never queued without bound. Admitted requests ride the epoch log's group
// commit, so concurrent arrivals amortize one fsync instead of paying one
// each, and a request is only ever acknowledged after its evidence is
// durable. When the audit pipeline falls behind, the admission window
// tightens in proportion to the lag: the collector serves at the rate its
// responses can actually be checked.
//
// Epochs seal on a request-count threshold, on age, or on demand; sealing
// drains the server's accumulated advice (rebasing its in-memory state onto
// carry identities, see server.DrainAdvice) and makes the epoch visible to
// the incremental auditor. The seal itself is split so serving never stalls
// behind an encode or an fsync: only the rotation and the drain hold the
// epoch gate, and the encode and the durable half run after it.
package collectorhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
)

// Config describes one collector instance.
type Config struct {
	// Spec is the application to serve.
	Spec harness.AppSpec
	// Dir is the epoch log directory; created if absent.
	Dir string
	// EpochRequests seals the active epoch once it holds this many
	// requests. 0 disables count-based sealing.
	EpochRequests int
	// EpochMaxAge seals a non-empty active epoch older than this. 0
	// disables age-based sealing.
	EpochMaxAge time.Duration
	// Seed seeds the dispatch loop's scheduler.
	Seed int64
	// Limits clamps the advice size accepted into the log; its
	// MaxAdviceBytes is enforced on append and again on replay.
	Limits verifier.Limits
	// FS is the filesystem the collector and its epoch log write through.
	// nil means the real OS; tests and chaos scenarios pass an
	// iofault.Injector.
	FS iofault.FS

	// MaxInflight bounds concurrently admitted /invoke requests; arrivals
	// beyond the window are shed with 429. <=0 means 256.
	MaxInflight int
	// MaxQueuedBytes bounds the summed body bytes of admitted requests.
	// <=0 means 32 MiB.
	MaxQueuedBytes int64
	// RetryAfter is the base retry hint attached to 429s; the value sent
	// is jittered across [RetryAfter, 2×RetryAfter). <=0 means 1s.
	RetryAfter time.Duration
	// AuditProgress, when set, reports the audit pipeline's progress as
	// the last fully audited epoch seq (ok=false while unknown). The
	// collector polls it and tightens admission when the auditor falls
	// behind the sealed frontier.
	AuditProgress func() (lastAudited uint64, ok bool)
	// MaxAuditLag is how many sealed-but-unaudited epochs the collector
	// tolerates before tightening admission and failing /readyz. <=0
	// means 64 when AuditProgress is set, disabled otherwise.
	MaxAuditLag int
}

func (cfg Config) fs() iofault.FS {
	if cfg.FS == nil {
		return iofault.OS
	}
	return cfg.FS
}

// Meta is the sidecar record written next to the epoch log so the offline
// auditor (karousos audit) knows which application re-executes the epochs.
// It is pinned when the directory's first collector boots (iofault.PinJSON):
// reopening the directory as another app is refused. The advice is always
// Karousos advice; a "mode" field in a sidecar written by older collectors
// is ignored.
type Meta struct {
	App string `json:"app"`
}

// MetaFile is the name of the sidecar inside the epoch log directory.
const MetaFile = "meta.json"

// MaxRequestBytes bounds one /invoke body, at the collector and at the
// gateway in front of it; a longer body is answered 413 and never read
// past the bound.
const MaxRequestBytes = 1 << 20

// Collector is the HTTP front-end plus its serving runtime and epoch log.
type Collector struct {
	cfg Config
	adm *admission

	srv *server.Server // immutable; ServeOne under serveMu, DrainAdvice under the gate's write lock
	log *epochlog.Log  // immutable pointer; the log is internally synchronized

	// gate is the epoch gate: a request holds it shared from its REQ
	// enqueue until both its frames are acked durable, and a rotation holds
	// it exclusively — so a seal can never split a REQ/RESP pair across
	// epochs, and never rotates with a request's frame still in flight.
	gate sync.RWMutex
	// ridMu orders RID assignment with the REQ enqueue, so the trace
	// admits requests in RID order even under concurrency.
	ridMu   sync.Mutex
	nextRID uint64
	// serveMu serializes the deterministic dispatch loop: server.ServeOne
	// runs it at admission window 1 (one request's whole handler tree), so
	// the concurrency lives in the commit path on either side of it.
	serveMu sync.Mutex
	// sealMu serializes whole seals (rotate + finish) across their
	// triggers: threshold, age, /seal, Close.
	sealMu sync.Mutex

	mu          sync.Mutex // guards the mutable state below
	served      int
	lastSeal    time.Time
	lastSealErr error
	closed      bool

	loopTicker *time.Ticker
	loopDone   chan struct{}
}

// New opens (or creates) the epoch log and boots a fresh application
// instance behind it. Reopening a directory a previous incarnation wrote
// to is a restart: the recovered partial epoch (if any) is sealed as-is,
// the RID counter resumes past every RID the log has seen, and the next
// epoch is marked fresh so the auditor knows the application state was
// rebuilt (see recoverIncarnation).
func New(cfg Config) (*Collector, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.MaxQueuedBytes <= 0 {
		cfg.MaxQueuedBytes = 32 << 20
	}
	if cfg.AuditProgress != nil && cfg.MaxAuditLag <= 0 {
		cfg.MaxAuditLag = 64
	}
	if err := cfg.fs().MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := iofault.PinJSON(cfg.fs(), filepath.Join(cfg.Dir, MetaFile), Meta{App: cfg.Spec.Name}); err != nil {
		return nil, fmt.Errorf("collectorhttp: %w", err)
	}
	l, err := epochlog.Open(cfg.Dir, epochlog.Options{
		MaxAdviceBytes: cfg.Limits.MaxAdviceBytes,
		FS:             cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	nextRID, err := recoverIncarnation(l)
	if err != nil {
		l.Close() // close-after-error cleanup; the recovery failure is the error that surfaces
		return nil, err
	}
	app, store := cfg.Spec.New()
	srv := server.New(server.Config{
		App:             app,
		Store:           store,
		Seed:            cfg.Seed,
		CollectKarousos: true,
	})
	lagLimit := 0
	if cfg.AuditProgress != nil {
		lagLimit = cfg.MaxAuditLag
	}
	c := &Collector{
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInflight, cfg.MaxQueuedBytes, lagLimit),
		srv:      srv,
		log:      l,
		nextRID:  nextRID,
		lastSeal: time.Now(),
	}
	if cfg.EpochMaxAge > 0 || cfg.AuditProgress != nil {
		interval := 250 * time.Millisecond
		if cfg.EpochMaxAge > 0 {
			interval = cfg.EpochMaxAge / 2
		}
		c.loopTicker = time.NewTicker(interval)
		c.loopDone = make(chan struct{})
		go c.maintenanceLoop()
	}
	return c, nil
}

// recoverIncarnation reconciles a freshly built application instance with
// an epoch log a previous collector incarnation wrote to. The previous
// incarnation's in-memory state is gone, so three things must happen before
// serving resumes: any recovered partial epoch is sealed as-is (its advice,
// if the crash lost part of it, honestly rejects — it cannot be completed
// by a runtime that never served those requests); the RID counter is
// recovered from the sealed manifests so RIDs never repeat across
// incarnations (server.DrainAdvice's carry rebasing depends on that); and
// the new active epoch is marked fresh on the trusted channel so the
// auditor drops prior-epoch carry instead of falsely rejecting the rebuilt
// state. On a pristine directory it returns 0 and marks nothing.
func recoverIncarnation(l *epochlog.Log) (uint64, error) {
	if events, _ := l.ActiveEvents(); events > 0 {
		// The epoch is sealed with whatever advice survived the crash, and
		// flagged degraded on the trusted channel: its evidence may be
		// incomplete through no fault of the server, so a failed audit of it
		// is Unauditable, not a rejection.
		l.MarkDegraded("recovered partial epoch from crashed incarnation")
		if _, err := l.Seal(); err != nil {
			return 0, fmt.Errorf("collectorhttp: sealing recovered partial epoch: %w", err)
		}
	}
	sealed := l.Sealed()
	if len(sealed) == 0 {
		return 0, nil
	}
	var next uint64
	for _, m := range sealed {
		if m.LastRID == "" {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(m.LastRID, "r%d", &n); err != nil {
			return 0, fmt.Errorf("collectorhttp: cannot recover request counter: epoch %d last rid %q: %v", m.Seq, m.LastRID, err)
		}
		if n > next {
			next = n
		}
	}
	if next == 0 {
		return 0, fmt.Errorf("collectorhttp: cannot recover request counter: none of the %d sealed epochs records a last rid", len(sealed))
	}
	if err := l.MarkFresh(); err != nil {
		return 0, err
	}
	return next, nil
}

// ReadMeta loads the sidecar record from an epoch log directory.
func ReadMeta(dir string) (Meta, error) {
	blob, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(blob, &m); err != nil {
		return Meta{}, fmt.Errorf("collectorhttp: bad %s: %w", MetaFile, err)
	}
	return m, nil
}

// maintenanceLoop is the collector's background tick: it refreshes the
// audit-lag signal feeding the admission window, and seals the active
// epoch when it outlives EpochMaxAge.
func (c *Collector) maintenanceLoop() {
	for {
		select {
		case <-c.loopDone:
			return
		case <-c.loopTicker.C:
			c.refreshLag()
			if c.cfg.EpochMaxAge <= 0 {
				continue
			}
			c.mu.Lock()
			due := !c.closed && time.Since(c.lastSeal) >= c.cfg.EpochMaxAge
			c.mu.Unlock()
			if due {
				// seal failure is held in lastSealErr (flips /readyz) and retried on the next tick
				_, _ = c.seal(0)
			}
		}
	}
}

// refreshLag polls the auditor's progress and feeds the admission window.
// Lag is measured in sealed-but-unaudited epochs: the distance between the
// newest epoch the collector has durably sealed and the newest one the
// auditor has actually graded. An epoch rotated out but still pending its
// seal is not auditable yet, so it is not lag.
func (c *Collector) refreshLag() {
	if c.cfg.AuditProgress == nil {
		return
	}
	audited, ok := c.cfg.AuditProgress()
	if !ok {
		return
	}
	sealedThrough := uint64(c.log.SealedCount())
	lag := 0
	if sealedThrough > audited {
		lag = int(sealedThrough - audited)
	}
	c.adm.observeLag(lag)
}

// Handler returns the collector's HTTP mux:
//
//	POST /invoke  {"input": <value>} → {"rid": "...", "output": <value>}
//	POST /seal    force-seal the active epoch → manifest (204 when empty)
//	GET  /healthz Status: counters, epoch positions, epoch-log and admission
//	              detail; always 200 while the process lives
//	GET  /readyz  200 when accepting traffic, 503 when closed, seal-stuck,
//	              saturated, or too far ahead of the auditor
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", c.handleInvoke)
	mux.HandleFunc("POST /seal", c.handleSeal)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	return mux
}

// shed refuses an arrival with 429 and a jittered Retry-After hint, so a
// synchronized burst's retries do not come back in phase.
func (c *Collector) shed(w http.ResponseWriter, reason string) {
	base := c.cfg.RetryAfter
	if base <= 0 {
		base = time.Second
	}
	d := base + time.Duration(rand.Int63n(int64(base)))
	secs := int((d + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, reason, http.StatusTooManyRequests)
}

func (c *Collector) handleInvoke(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request exceeds byte limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var body struct {
		Input json.RawMessage `json:"input"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var input value.V
	if len(body.Input) > 0 {
		if err := json.Unmarshal(body.Input, &input); err != nil {
			http.Error(w, "bad input value: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	input = value.Normalize(input)

	// Admission: claim a slot in the bounded window or shed now. Queuing
	// past the window would only move the overload into an unbounded
	// queue the disk cannot drain — and a collector that dies with a deep
	// queue dies holding evidence it never made durable.
	cost := int64(len(raw))
	if !c.adm.tryAdmit(cost) {
		c.shed(w, "admission window full")
		return
	}
	defer c.adm.release(cost)

	rid, out, status, refuse := c.serveAdmitted(r.Context(), input)
	if refuse != "" {
		if status == http.StatusTooManyRequests {
			// Shed past admission (the commit queue itself is full); count
			// it so the shed gauge covers every 429 the collector sends.
			c.adm.noteShed()
			c.shed(w, refuse)
			return
		}
		http.Error(w, refuse, status)
		return
	}

	if c.cfg.EpochRequests > 0 {
		if _, reqs := c.log.ActiveEvents(); reqs >= c.cfg.EpochRequests {
			// A failed threshold seal must not fail the request that tripped
			// it — the response is already computed and recorded. The error
			// is held in lastSealErr (flips /readyz) and the seal retries on
			// the next request or age tick.
			_, _ = c.seal(c.cfg.EpochRequests)
		}
	}
	writeJSON(w, status, map[string]any{"rid": string(rid), "output": out})
}

// serveAdmitted runs one admitted request under the epoch gate: REQ
// enqueue, execution, RESP enqueue and the one durability wait that covers
// both frames all happen inside one shared hold, so a concurrent rotation
// can never split the pair across epochs. It returns either a served result
// (refuse == "", status 200/500) or a refusal (refuse != "" with its status
// code).
func (c *Collector) serveAdmitted(ctx context.Context, input value.V) (core.RID, value.V, int, string) {
	c.gate.RLock()
	defer c.gate.RUnlock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return "", nil, http.StatusServiceUnavailable, "collector closed"
	}
	// A client that went away while waiting for the gate is refused here,
	// before anything is recorded: past the REQ enqueue the handler runs,
	// and a request that ran must reach the trace.
	if err := ctx.Err(); err != nil {
		return "", nil, http.StatusServiceUnavailable, "request cancelled before it was recorded: " + err.Error()
	}

	// Trusted path: the request is ground truth the moment it is admitted.
	// RID assignment and the REQ enqueue share one critical section so the
	// trace admits requests in RID order, and the enqueue comes before any
	// untrusted execution runs. Its durability does not: the frame commits
	// while the handler executes. A refused enqueue (full commit queue,
	// closed log) is decided on the spot, so the request is refused before
	// it runs and leaves no state behind. The RID is not rolled back: RIDs
	// must only ever grow, and audit keys on the trace, not the counter.
	c.ridMu.Lock()
	c.nextRID++
	rid := core.RID(fmt.Sprintf("r%08d", c.nextRID))
	reqAck := c.log.AppendEventAsync(trace.Event{Kind: trace.Req, RID: string(rid), Data: input})
	c.ridMu.Unlock()
	if err := reqAck.Refused(); err != nil {
		if errors.Is(err, epochlog.ErrCommitQueueFull) {
			return "", nil, http.StatusTooManyRequests, "epoch log: " + err.Error()
		}
		return "", nil, http.StatusServiceUnavailable, "epoch log: " + err.Error()
	}

	c.serveMu.Lock()
	out, serveErr := c.srv.ServeOne(server.Request{RID: rid, Input: input})
	c.serveMu.Unlock()
	if serveErr != nil {
		// The request was admitted, so the trace must still balance: record
		// the failure as the response the client observed. An audit of this
		// epoch will reject — correctly, since re-execution cannot
		// reproduce a response the handler never produced.
		out = value.Normalize(value.Map("error", serveErr.Error()))
	}

	// One durability wait per request: commits are FIFO, so by the time the
	// RESP's batch is acked the REQ's ack has resolved too.
	respAck := c.log.AppendEventAsync(trace.Event{Kind: trace.Resp, RID: string(rid), Data: out})
	respErr := respAck.Wait()
	if err := reqAck.Wait(); err != nil {
		// The handler already ran, so the application state and the advice
		// hold a request the trace lacks. Flag the epoch — an audit of it
		// is Unauditable, not a rejection — and refuse the client, whose
		// request is on no durable record.
		c.log.MarkDegraded("request append failed for " + string(rid) + ": " + err.Error())
		return "", nil, http.StatusServiceUnavailable, "epoch log: " + err.Error()
	}
	if respErr != nil {
		// The response already left the application. If its append fails
		// the client keeps its response (refusing it now would lose work a
		// client may retry non-idempotently) and the epoch is flagged: its
		// trace is unbalanced through an infrastructure fault, so the
		// auditor grades it Unauditable rather than rejected.
		c.log.MarkDegraded("response append failed for " + string(rid) + ": " + respErr.Error())
	}

	c.mu.Lock()
	c.served++
	c.mu.Unlock()
	status := http.StatusOK
	if serveErr != nil {
		status = http.StatusInternalServerError
	}
	return rid, out, status, ""
}

func (c *Collector) handleSeal(w http.ResponseWriter, r *http.Request) {
	m, err := c.seal(0)
	if err != nil {
		http.Error(w, "seal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if m == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// Status is the collector's observable state, served on /healthz.
type Status struct {
	App            string `json:"app"`
	Served         int    `json:"served"`
	ActiveSeq      uint64 `json:"activeSeq"`
	ActiveEvents   int    `json:"activeEvents"`
	ActiveRequests int    `json:"activeRequests"`
	SealedEpochs   int    `json:"sealedEpochs"`
	// Shed counts arrivals refused with 429 since boot.
	Shed uint64 `json:"shed"`
	// PendingSeals counts epochs rotated out but not yet durably sealed.
	PendingSeals int `json:"pendingSeals,omitempty"`
	// OpenEpochAgeMS is how long ago the last seal completed — how stale
	// the auditable prefix is.
	OpenEpochAgeMS int64 `json:"openEpochAgeMs"`
	// LastSealError is the most recent seal attempt's failure, "" once a
	// seal succeeds again.
	LastSealError string `json:"lastSealError,omitempty"`
	// Degraded is the active epoch's degradation reason, "" when the
	// current evidence is complete.
	Degraded string `json:"degraded,omitempty"`
	Closed   bool   `json:"closed,omitempty"`
	// Admission is the bounded intake's state, including the audit-lag
	// signal it tightens on.
	Admission AdmissionState `json:"admission"`
}

// Status reports the collector's counters, epoch positions, and epoch-log
// and admission health.
func (c *Collector) Status() Status {
	c.mu.Lock()
	served, lastSeal, lastSealErr, closed := c.served, c.lastSeal, c.lastSealErr, c.closed
	c.mu.Unlock()
	events, reqs := c.log.ActiveEvents()
	adm := c.adm.snapshot()
	st := Status{
		App:            c.cfg.Spec.Name,
		Served:         served,
		ActiveSeq:      c.log.ActiveSeq(),
		ActiveEvents:   events,
		ActiveRequests: reqs,
		SealedEpochs:   c.log.SealedCount(),
		Shed:           adm.Shed,
		PendingSeals:   c.log.PendingSeals(),
		OpenEpochAgeMS: time.Since(lastSeal).Milliseconds(),
		Degraded:       c.log.Degraded(),
		Closed:         closed,
		Admission:      adm,
	}
	if lastSealErr != nil {
		st.LastSealError = lastSealErr.Error()
	}
	return st
}

func (c *Collector) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.refreshLag()
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Collector) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c.refreshLag()
	h := c.Status()
	switch {
	case h.Closed:
		http.Error(w, "collector closed", http.StatusServiceUnavailable)
	case h.LastSealError != "":
		http.Error(w, "seal failing: "+h.LastSealError, http.StatusServiceUnavailable)
	case h.Admission.Saturated:
		// Not an error state — the collector is doing its job — but a load
		// balancer should drain traffic before clients start seeing 429s.
		http.Error(w, "admission window saturated", http.StatusServiceUnavailable)
	case h.Admission.MaxAuditLag > 0 && h.Admission.AuditLag > h.Admission.MaxAuditLag:
		http.Error(w, fmt.Sprintf("audit lag %d epochs exceeds %d", h.Admission.AuditLag, h.Admission.MaxAuditLag), http.StatusServiceUnavailable)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// Seal drains the runtime's advice into the active epoch and seals it.
// Sealing an empty epoch is a no-op returning (nil, nil) — unless earlier
// rotated epochs are still pending their durable seal, in which case those
// are finished.
func (c *Collector) Seal() (*epochlog.Manifest, error) {
	return c.seal(0)
}

// seal rotates the active epoch out and finishes its durable seal. Under
// the epoch gate's write lock no request is in flight, so Rotate and then
// DrainAdvice see one cut that no REQ/RESP pair straddles, and a failed
// rotation drains nothing. After the gate is released the advice is
// encoded and bound to the rotated epoch, and the durable half runs while
// traffic resumes. sealMu keeps concurrent seal triggers from
// interleaving, and a failed finish stays pending: the next seal attempt
// retries it before anything newer.
//
// minRequests is the threshold trigger's re-check: the epoch rotates only
// if it still holds that many requests once this caller owns sealMu. Every
// request that saw the threshold crossed races here, and without the
// re-check each one that lost the race would seal whatever arrived after
// the winner's rotation — an epoch of two or three requests.
func (c *Collector) seal(minRequests int) (*epochlog.Manifest, error) {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	var err error
	if _, reqs := c.log.ActiveEvents(); reqs >= minRequests {
		var seq uint64
		var kar *advice.Advice
		c.gate.Lock()
		if seq, err = c.log.Rotate(); seq != 0 {
			kar, _ = c.srv.DrainAdvice()
		}
		c.gate.Unlock()
		if seq != 0 {
			// over-limit advice: the log has dropped it and flagged the epoch Degraded
			_ = c.log.SetAdvice(seq, kar.MarshalBinary())
		}
	}
	var m *epochlog.Manifest
	if err == nil {
		m, err = c.log.FinishSeals()
	}
	c.mu.Lock()
	c.lastSealErr = err
	if m != nil {
		// Even a partially failed finish that sealed something restarts the
		// age clock: the auditable prefix did advance.
		c.lastSeal = time.Now()
	}
	c.mu.Unlock()
	c.refreshLag()
	return m, err
}

// Crash abandons the collector the way a killed process would: no seal,
// the active epoch's tail left on disk for the next incarnation to recover.
// Chaos scenarios use it; production code wants Close.
func (c *Collector) Crash() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.stopLoopLocked()
	c.mu.Unlock()
	return c.log.Close()
}

// Close seals any partial epoch and releases the log. Safe to call once.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.stopLoopLocked()
	c.mu.Unlock()
	// In-flight requests finish under the gate before the final seal's
	// rotation; new arrivals see closed and are refused.
	_, sealErr := c.seal(0)
	logErr := c.log.Close()
	if sealErr != nil {
		return sealErr
	}
	return logErr
}

// stopLoopLocked stops the maintenance loop. Caller holds c.mu.
func (c *Collector) stopLoopLocked() {
	if c.loopTicker != nil {
		c.loopTicker.Stop()
		close(c.loopDone)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // best-effort response body; the status header is already sent
}
