// Package server implements the online, untrusted-side runtime: a KEM
// dispatch loop (paper §3) that serves requests against an application and —
// when advice collection is enabled — produces the advice of Appendix C.1.3:
// control-flow tags (§4.1/§5), handler logs, R-concurrency-filtered variable
// logs (Figure 13), transaction logs with dictating PUTs, the binlog-derived
// write order, opcounts, responseEmittedBy, and recorded non-determinism.
//
// The same runtime serves three roles via configuration: the unmodified
// baseline (no collection), the Karousos server, and the Orochi-JS server
// (sequence-based tags, log-every-access variable logs). Karousos and
// Orochi-JS advice can be collected in one run, which is how the paper's
// artifact produces verification-time comparisons from a single trace.
//
// Like Node.js, the dispatch loop runs handlers to completion one at a time;
// concurrency is the interleaving of many in-flight requests' pending
// activations. A seeded scheduler picks the next activation, so experiments
// are reproducible while still exercising R-concurrency and transaction
// conflicts.
package server

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

// Config configures a server run.
type Config struct {
	// App is the application factory's product for this runtime.
	App *core.App
	// Store is the transactional KV store; nil if the app uses none.
	Store *kvstore.Store
	// Seed drives the activation scheduler.
	Seed int64
	// Workers selects the dispatch mode: 0 or 1 is the Node.js-style
	// single-threaded loop; higher values run that many OS threads executing
	// handler activations in parallel. KEM explicitly permits concurrently
	// executing handlers (§3: "KEM models a runtime that can have multiple
	// concurrent threads"), and the audit algorithms make no assumption
	// about the dispatch loop — the verifier is unchanged in this mode.
	// Parallel runs are not deterministic in Seed.
	Workers int
	// CollectKarousos enables Karousos advice collection.
	CollectKarousos bool
	// CollectOrochi enables Orochi-JS advice collection.
	CollectOrochi bool
}

// Request is one incoming request to serve.
type Request struct {
	RID   core.RID
	Input value.V
}

// Result carries everything a run produced.
type Result struct {
	Trace    *trace.Trace
	Karousos *advice.Advice // nil unless collected
	Orochi   *advice.Advice // nil unless collected
	// Conflicts counts store-level transaction aborts due to contention.
	Conflicts int
}

// Server executes an application under the KEM dispatch loop.
type Server struct {
	cfg Config
	rng *rand.Rand
	// tr is the trace Run is recording, nil outside Run: ServeOne records
	// none, since its front-end is the trusted collector that does.
	tr *trace.Trace

	// dialects are the advice collections enabled by the config (Karousos
	// first); none for the unmodified baseline.
	dialects []*dialect

	// global listener table built by Init: registration order preserved.
	globalListeners map[core.EventName][]core.FunctionID

	vars map[core.VarID]*varState

	pending  []*activation
	requests map[core.RID]*reqState

	txs map[txKey]*txState

	// mu serializes every special operation (variable, handler, state, and
	// trace-recording operations) when Workers > 1; pure handler computation
	// runs outside it, which is where parallel dispatch gains. KEM assumes
	// sequentially consistent variable accesses (§3), which the mutex
	// provides. Single-threaded mode skips locking.
	mu       sync.Mutex
	parallel bool

	// binlogDrained/txEventsDrained are the store cursors of the epoch
	// pipeline: DrainAdvice emits write-order and tx-order deltas past them.
	binlogDrained   int
	txEventsDrained int

	initDone bool
}

type txKey struct {
	rid core.RID
	tid core.TxID
}

type txState struct {
	txn *kvstore.Txn
	log []advice.TxOp
}

type reqState struct {
	outstanding int // pending or running activations
	responded   bool
	// handlerLog accumulates this request's handler operations in issue
	// order.
	handlerLog []advice.HandlerOp
	// listeners is the request-local listener table (global handlers plus
	// request-scoped registrations; Figure 16's per-request Registered set).
	listeners map[core.EventName][]core.FunctionID
	// opcounts per handler activation.
	opcounts map[core.HID]int
	// tag material: per handler (hid, control-flow digest), in activation
	// order; each dialect's tag digests it as a sequence or as a set.
	tagParts []tagPart
	// childCounters assigns activation labels: children per parent hid.
	childCounters map[core.HID]int
	response      advice.OpAt
	// respVal is the normalized response payload, kept so ServeOne can
	// return it to an HTTP front-end.
	respVal value.V
}

type tagPart struct {
	hid core.HID
	cfd uint64
}

type activation struct {
	rid     core.RID
	fn      core.FunctionID
	event   core.EventName
	hid     core.HID
	label   core.Label
	payload value.V
}

type varState struct {
	val  value.V
	last core.TaggedOp // most recent write (the Figure 13 v.rid/hid/opnum fields)
}

// New builds a server and runs the application's initialization function
// (the designated init of §3): global handler registrations and variable
// initializations happen here, under the pseudo-activation I.
func New(cfg Config) *Server {
	s := &Server{
		cfg:             cfg,
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		globalListeners: make(map[core.EventName][]core.FunctionID),
		vars:            make(map[core.VarID]*varState),
		requests:        make(map[core.RID]*reqState),
		txs:             make(map[txKey]*txState),
		parallel:        cfg.Workers > 1,
	}
	if cfg.CollectKarousos {
		s.dialects = append(s.dialects, newDialect(advice.ModeKarousos))
	}
	if cfg.CollectOrochi {
		s.dialects = append(s.dialects, newDialect(advice.ModeOrochiJS))
	}
	if cfg.App.Init != nil {
		ictx := core.NewContext(s, []core.RID{core.InitRID}, core.InitHID, "", "", core.InitLabel)
		cfg.App.Init(ictx)
	}
	s.initDone = true
	return s
}

// Run serves the requests with the given admission concurrency and returns
// the trace plus collected advice. concurrency is the paper's "number of
// concurrent requests": at most that many requests are in flight at once.
func (s *Server) Run(reqs []Request, concurrency int) (*Result, error) {
	if concurrency < 1 {
		return nil, fmt.Errorf("server: concurrency must be ≥ 1, got %d", concurrency)
	}
	tr := &trace.Trace{}
	s.tr = tr
	err := s.serve(reqs, concurrency)
	s.tr = nil
	if err != nil {
		return nil, err
	}
	res := &Result{
		Trace:    tr,
		Karousos: s.collected(advice.ModeKarousos),
		Orochi:   s.collected(advice.ModeOrochiJS),
	}
	if s.cfg.Store != nil {
		_, res.Conflicts = s.cfg.Store.Stats()
		wo, to, _, _ := s.storeOrder(0, 0)
		for _, d := range s.dialects {
			d.adv.WriteOrder, d.adv.TxOrder = slices.Clone(wo), slices.Clone(to)
		}
	}
	return res, nil
}

// serve is the dispatch loop: it admits requests in order, at most window
// of them in flight, and runs their pending activations — each picked
// pseudo-randomly by the seeded scheduler — until every request has
// finished. With Workers ≤ 1 the loop runs on the calling goroutine, one
// activation at a time, so a run is reproducible from Seed; otherwise
// Workers goroutines share it, each running its activation outside s.mu
// while every special operation serializes on it. The audit algorithms
// never assumed a single-threaded server, so honest parallel executions
// verify unchanged.
func (s *Server) serve(reqs []Request, window int) error {
	var (
		next, inflight, running int
		err                     error
		cond                    = sync.NewCond(&s.mu)
	)
	admit := func() { // caller owns the server state
		for inflight < window && next < len(reqs) {
			s.admit(reqs[next])
			next++
			inflight++
		}
	}
	loop := func() {
		s.lock()
		defer s.unlock()
		for {
			// Only a parallel worker can find nothing pending while
			// another still runs; the single-threaded loop never waits.
			for len(s.pending) == 0 && running > 0 && err == nil {
				cond.Wait()
			}
			if err != nil || len(s.pending) == 0 {
				cond.Broadcast()
				return
			}
			i := s.rng.Intn(len(s.pending))
			act := s.pending[i]
			s.pending[i] = s.pending[len(s.pending)-1]
			s.pending = s.pending[:len(s.pending)-1]
			running++
			s.unlock()

			opsIssued, cfd := s.runActivation(act)

			s.lock()
			running--
			rs := s.requests[act.rid]
			rs.opcounts[act.hid] = opsIssued
			rs.tagParts = append(rs.tagParts, tagPart{hid: act.hid, cfd: cfd})
			rs.outstanding--
			if rs.outstanding == 0 {
				if !rs.responded {
					if err == nil {
						err = fmt.Errorf("server: request %s finished without responding", act.rid)
					}
				} else {
					s.finishRequest(act.rid, rs)
					inflight--
					admit()
				}
			}
			cond.Broadcast()
		}
	}

	s.lock()
	admit()
	s.unlock()
	if !s.parallel {
		loop()
		return err
	}
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	wg.Wait()
	return err
}

func (s *Server) admit(r Request) {
	rid := r.RID
	if _, dup := s.requests[rid]; dup {
		panic(fmt.Sprintf("server: duplicate rid %s", rid))
	}
	input := value.Normalize(r.Input)
	if s.tr != nil {
		s.tr.Events = append(s.tr.Events, trace.Event{Kind: trace.Req, RID: string(rid), Data: value.Clone(input)})
	}
	rs := &reqState{
		listeners:     make(map[core.EventName][]core.FunctionID, len(s.globalListeners)),
		opcounts:      make(map[core.HID]int),
		childCounters: make(map[core.HID]int),
	}
	for ev, fns := range s.globalListeners {
		rs.listeners[ev] = append([]core.FunctionID(nil), fns...)
	}
	s.requests[rid] = rs
	// Activate the request handlers: all functions registered for the
	// request event, with activator I and emit index 0 (Figure 18 line 11).
	for _, fn := range rs.listeners[s.cfg.App.RequestEvent] {
		hid := core.RequestHID(fn, s.cfg.App.RequestEvent)
		label := core.InitLabel.Child(rs.childCounters[core.InitHID])
		rs.childCounters[core.InitHID]++
		rs.outstanding++
		s.pending = append(s.pending, &activation{
			rid: rid, fn: fn, event: s.cfg.App.RequestEvent,
			hid: hid, label: label, payload: input,
		})
	}
	if rs.outstanding == 0 {
		panic("server: app registered no request handlers")
	}
}

var fnvOffset = fnv.New64a().Sum64()

func cfdUpdate(cfd uint64, site string, taken bool) uint64 {
	h := fnv.New64a()
	var b [1]byte
	if taken {
		b[0] = 1
	}
	h.Write([]byte(site))
	h.Write(b[:])
	return cfd*1099511628211 ^ h.Sum64()
}

// activationOps is the core.Ops a handler activation runs against: the
// server's operations plus the activation's running control-flow digest,
// which only the goroutine running the activation touches.
type activationOps struct {
	*Server
	cfd uint64
}

// Branch records the decision into the activation's control-flow digest
// (§5) when advice is collected.
func (a *activationOps) Branch(ctx *core.Context, site string, cond *mv.MV) bool {
	taken := a.Server.Branch(ctx, site, cond)
	if len(a.dialects) > 0 {
		a.cfd = cfdUpdate(a.cfd, site, taken)
	}
	return taken
}

// runActivation runs one handler activation to completion and returns the
// number of operations it issued and its control-flow digest.
func (s *Server) runActivation(act *activation) (int, uint64) {
	ops := &activationOps{Server: s, cfd: fnvOffset}
	ctx := core.NewContext(ops, []core.RID{act.rid}, act.hid, act.fn, act.event, act.label)
	s.cfg.App.Func(act.fn)(ctx, mv.Scalar(act.payload, 1))
	return ctx.OpsIssued(), ops.cfd
}

// lock/unlock guard shared server state in parallel mode and are no-ops in
// the single-threaded loop (which owns all state by construction).
func (s *Server) lock() {
	if s.parallel {
		s.mu.Lock()
	}
}

func (s *Server) unlock() {
	if s.parallel {
		s.mu.Unlock()
	}
}

// finishRequest folds a finished request's handler log, opcounts,
// responseEmittedBy and tag into every dialect's advice.
func (s *Server) finishRequest(rid core.RID, rs *reqState) {
	for _, d := range s.dialects {
		d.adv.Tags[rid] = d.tag(rs.tagParts)
		d.adv.OpCounts[rid] = maps.Clone(rs.opcounts)
		d.adv.ResponseEmittedBy[rid] = rs.response
		d.adv.HandlerLogs[rid] = slices.Clone(rs.handlerLog)
	}
}

// collected returns the advice being collected in mode, nil if none.
func (s *Server) collected(mode advice.Mode) *advice.Advice {
	for _, d := range s.dialects {
		if d.mode == mode {
			return d.adv
		}
	}
	return nil
}

// storeOrder converts the store's binlog installations and transaction
// events past the given cursors into the advice's write order and
// transaction order (§4.4), and returns the cursors past what it read.
func (s *Server) storeOrder(binlogFrom, eventsFrom int) (wo []advice.TxPos, to []advice.TxOrderEvent, binlogTo, eventsTo int) {
	binlog := s.cfg.Store.Binlog(binlogFrom)
	for _, ref := range binlog {
		wo = append(wo, advice.TxPos{RID: ref.RID, TID: ref.TID, Index: ref.Index})
	}
	events := s.cfg.Store.TxEvents(eventsFrom)
	for _, ev := range events {
		to = append(to, advice.TxOrderEvent{Kind: uint8(ev.Kind), RID: ev.RID, TID: ev.TID})
	}
	return wo, to, binlogFrom + len(binlog), eventsFrom + len(events)
}

// karousosTag groups requests with the same tree of handlers and the same
// in-handler control flow (§4.1): a digest of the *set* of (handlerID,
// control-flow digest) pairs. Because handlerIDs encode function, activating
// event, activator, and emit index, equal sets imply topologically equal
// trees regardless of activation order.
func karousosTag(parts []tagPart) string {
	sorted := append([]tagPart(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].hid != sorted[j].hid {
			return sorted[i].hid < sorted[j].hid
		}
		return sorted[i].cfd < sorted[j].cfd
	})
	return digestParts(sorted)
}

// orochiTag groups requests only if they executed the identical *sequence* of
// handlers (§6 Baselines): the digest is order-sensitive, so two requests
// whose unordered handlers interleaved differently land in different groups.
func orochiTag(parts []tagPart) string {
	return digestParts(parts)
}

func digestParts(parts []tagPart) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		h.Write([]byte(p.hid))
		for i := 0; i < 8; i++ {
			buf[i] = byte(p.cfd >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
