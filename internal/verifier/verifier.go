// Package verifier implements the Karousos audit (paper §4, Appendix C.1.4):
// given the trusted trace and the untrusted advice, it decides whether the
// responses in the trace could have been produced by executing the program
// on the requests in the trace.
//
// The audit has the three phases of Figure 14:
//
//   - Preprocess: structural validation of the advice and construction of
//     the execution graph G — time-precedence edges from the trace, program
//     and boundary edges from opcounts/responseEmittedBy, handler-log edges
//     and activation edges (Figure 16), external-state read-from edges, and
//     the provisional isolation-level verification over the alleged
//     transaction history (Figure 17, via the adya package).
//
//   - ReExec: grouped re-execution (Figure 18). Requests with equal tags
//     replay together through multivalues; handler and state operations are
//     checked against the logs (Figure 19); annotated variable operations
//     replay through variable logs and per-variable version dictionaries
//     (Figures 20–21), building read_observers/write_observer chains.
//
//   - Postprocess: internal-state WR/WW/RW edges are embedded into G
//     (Figure 21's AddInternalStateEdges) and the audit accepts iff G is
//     acyclic and every log entry was consumed by re-execution.
//
// Any failed check rejects the audit; rejection reasons are wrapped in
// core.Reject and surfaced as the returned error.
package verifier

import (
	"context"
	"fmt"
	"io"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier/memo"
)

// Config configures an audit.
type Config struct {
	// App must be a fresh instance of the same application the server ran.
	App *core.App
	// Mode selects Karousos or Orochi-JS replay semantics; it must match
	// the advice's mode.
	Mode advice.Mode
	// Isolation is the isolation level the transactional store is expected
	// to provide (§4.4); ignored when the application uses no store.
	Isolation adya.Level
	// DumpGraph, when non-nil, receives the execution graph G in Graphviz
	// DOT format after Postprocess — with the offending cycle highlighted
	// when the audit rejects on acyclicity. Debugging aid; not on the hot
	// path of a passing audit's checks.
	DumpGraph io.Writer
	// Limits bounds what the audit may consume; the zero value is
	// unbounded (see DefaultLimits for production bounds). Exceeding a
	// bound rejects with ResourceLimit.
	Limits Limits
	// Carry is the verified server state at the start of this epoch (nil
	// for a whole-history audit or the first epoch). It comes from the
	// auditor's own previous accepting audit — trusted input, like the
	// trace — and is injected as synthetic init-level state so this epoch's
	// unlogged reads and reads-from references resolve against prior
	// epochs. See CarryState.
	Carry *CarryState
	// Workers is the audit's parallelism: preprocess edge phases and group
	// re-execution fan out over this many goroutines, with effects merged
	// deterministically so the verdict, reject code, and Stats are
	// bit-identical to a sequential run (DESIGN.md §13). 0 means
	// GOMAXPROCS; 1 forces the sequential engine.
	Workers int
	// Memo, when non-nil, enables cross-epoch deduplicated re-execution
	// (DESIGN.md §18): tag groups whose full input closure digests to a
	// cached key replay their recorded effect set instead of re-executing.
	// The cache outlives individual audits — the auditor threads one cache
	// through an epoch sequence and must Reset it at Fresh boundaries,
	// exactly like it drops Carry. Verdicts, reject codes, and all
	// non-memo Stats are bit-identical with and without a cache.
	Memo *memo.Cache
}

// node kinds of the execution graph G.
const (
	kReq  uint8 = iota // (rid, 0): request arrival
	kResp              // (rid, ∞): response delivery
	kOp                // (rid, hid, i): the i-th operation (0 = handler start)
	kHEnd              // (rid, hid, ∞): handler exit
	kBar               // time-precedence barrier between trace positions
)

// gnode is a node of G.
type gnode struct {
	kind uint8
	rid  core.RID
	hid  core.HID
	op   int
}

func reqNode(rid core.RID) gnode  { return gnode{kind: kReq, rid: rid} }
func respNode(rid core.RID) gnode { return gnode{kind: kResp, rid: rid} }
func opNode(rid core.RID, hid core.HID, i int) gnode {
	return gnode{kind: kOp, rid: rid, hid: hid, op: i}
}
func hEndNode(rid core.RID, hid core.HID) gnode { return gnode{kind: kHEnd, rid: rid, hid: hid} }
func barNode(i int) gnode                       { return gnode{kind: kBar, op: i} }

// opLoc locates an operation inside the logs (Figure 14's OpMap): its
// handler-log entry, or its transaction log and 1-based position there.
type opLoc struct {
	hop *advice.HandlerOp
	tl  *advice.TxLog
	idx int
}

type txRef struct {
	rid core.RID
	tid core.TxID
}

type lmKey struct {
	rid core.RID
	tid core.TxID
	key string
}

type regEntry struct {
	event core.EventName
	fn    core.FunctionID
}

// Verifier holds all audit state. A Verifier performs one audit and is then
// discarded.
type Verifier struct {
	cfg Config
	tr  *trace.Trace
	adv *advice.Advice

	// ctx carries the audit deadline / cancellation; pollN drives the
	// periodic budget checks (see limits.go).
	ctx   context.Context
	pollN int

	// ids interns the epoch's rids and hids (ids.go); eg is the interned
	// execution graph, which buildLayout creates once the trace and advice
	// are known.
	ids *idTable
	eg  *egraph

	inTrace map[core.RID]bool
	inputs  map[core.RID]value.V
	outputs map[core.RID]value.V

	// opLocs maps each op a handler or transaction log claims, by node id,
	// to its log location; claimed lists those node ids in claim order.
	// activated maps an emit's node id to the slots of the handlers it
	// activates, in hid order.
	opLocs    map[uint32]opLoc
	claimed   []uint32
	activated map[uint32][]int32

	txIndex   map[txRef]*advice.TxLog
	committed map[txRef]bool
	readMap   map[advice.TxPos][]advice.TxPos
	lastMod   map[lmKey]int
	inWO      map[advice.TxPos]bool

	globalHandlers []regEntry
	requestFns     []core.FunctionID
	requestHIDs    []core.HID // by requestFns index

	vars       map[core.VarID]*vvar
	rawVarLogs map[core.VarID]*varLog
	nondet     map[op]value.V

	// carryTx resolves TxPos references into carried prior-epoch writes;
	// woPerKey keeps the verified per-key write order for carryOut.
	carryTx  map[advice.TxPos]*advice.TxOp
	woPerKey map[string][]advice.TxPos

	// consumption tracking: re-execution must account for every log entry.
	// opConsumed is a bitmap over the layout's op nodes (by node id minus
	// slotBase), executed is indexed by slot and responded by rid id.
	opConsumed []uint64
	executed   []bool
	responded  []bool

	// memoPending holds effect sets captured during reExec awaiting the
	// publish-after-accept boundary (memo.go).
	memoPending []memoCandidate

	// Stats are filled in as the audit runs, for the evaluation harness.
	Stats Stats
}

// Stats reports audit-side quantities the experiments record.
//
// The memo counters are the one deliberate asymmetry in the engine's
// bit-identity story: at a FIXED memo configuration they are deterministic
// at every worker count (all cache traffic is coordinator-side, memo.go),
// but they necessarily differ between memo-on and memo-off runs.
// Cross-memo differential comparisons normalize them with ZeroMemo.
type Stats struct {
	Groups        int
	Requests      int
	GraphNodes    int
	GraphEdges    int
	HandlersRerun int
	// MemoHits / MemoMisses count tag groups replayed from the memo cache
	// vs re-executed cold; MemoEvictions counts entries the published
	// candidates displaced. All zero when no cache is configured.
	MemoHits      int
	MemoMisses    int
	MemoEvictions int
}

// Add accumulates another audit's work counters into s — how multi-epoch
// and multi-shard pipelines sum per-audit Stats into one comparable total.
func (s *Stats) Add(o Stats) {
	s.Groups += o.Groups
	s.Requests += o.Requests
	s.GraphNodes += o.GraphNodes
	s.GraphEdges += o.GraphEdges
	s.HandlersRerun += o.HandlersRerun
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.MemoEvictions += o.MemoEvictions
}

// ZeroMemo returns s with the memo counters cleared — the normalization
// differential tests apply before comparing a memo-on run against a
// memo-off run, whose every OTHER field must match bit-for-bit.
func (s Stats) ZeroMemo() Stats {
	s.MemoHits, s.MemoMisses, s.MemoEvictions = 0, 0, 0
	return s
}

// New builds a verifier for one audit.
func New(cfg Config) *Verifier {
	return &Verifier{
		cfg:       cfg,
		ids:       newIDTable(),
		inTrace:   make(map[core.RID]bool),
		inputs:    make(map[core.RID]value.V),
		outputs:   make(map[core.RID]value.V),
		opLocs:    make(map[uint32]opLoc),
		activated: make(map[uint32][]int32),
		txIndex:   make(map[txRef]*advice.TxLog),
		committed: make(map[txRef]bool),
		readMap:   make(map[advice.TxPos][]advice.TxPos),
		lastMod:   make(map[lmKey]int),
		inWO:      make(map[advice.TxPos]bool),
		vars:      make(map[core.VarID]*vvar),
		nondet:    make(map[op]value.V),
	}
}

// Audit runs the full audit of Figure 14 and returns nil iff the verifier
// accepts the (trace, advice) pair. Every rejection is a core.Reject with a
// machine-readable code; Audit never panics on hostile advice (a non-Reject
// panic is contained into an InternalFault rejection).
func Audit(cfg Config, tr *trace.Trace, adv *advice.Advice) (Stats, error) {
	return AuditContext(context.Background(), cfg, tr, adv)
}

// AuditContext is Audit under a caller-supplied context: the audit rejects
// with ResourceLimit at its next cancellation check once ctx is done. When
// cfg.Limits.Deadline is set, it is applied on top of ctx.
func AuditContext(ctx context.Context, cfg Config, tr *trace.Trace, adv *advice.Advice) (Stats, error) {
	st, _, err := auditFull(ctx, cfg, tr, adv, false)
	return st, err
}

// AuditCarry audits one epoch and, when it accepts, additionally returns
// the verified end-state to thread into the next epoch's Config.Carry. It
// is AuditContext plus carry extraction; the extraction runs inside the
// same panic-containment boundary.
func AuditCarry(ctx context.Context, cfg Config, tr *trace.Trace, adv *advice.Advice) (Stats, *CarryState, error) {
	return auditFull(ctx, cfg, tr, adv, true)
}

func auditFull(ctx context.Context, cfg Config, tr *trace.Trace, adv *advice.Advice, wantCarry bool) (st Stats, carry *CarryState, err error) {
	if cfg.Limits.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Limits.Deadline)
		defer cancel()
	}
	v := New(cfg)
	v.ctx = ctx
	defer func() {
		if r := recover(); r != nil {
			st, carry, err = v.Stats, nil, *asReject(r)
		}
	}()
	if adv.Mode != cfg.Mode {
		return v.Stats, nil, core.Reject{
			Code:   core.RejectMalformedAdvice,
			Reason: fmt.Sprintf("advice mode %q does not match configured mode %q", adv.Mode, cfg.Mode),
		}
	}
	v.tr = tr
	v.adv = adv
	v.preprocess()
	v.reExec()
	v.postprocess()
	if wantCarry {
		carry = v.carryOut()
	}
	// Only now — after postprocess accepted and carry extracted — do the
	// captured effect sets become reachable by future epochs' keys: no
	// entry recorded from a rejecting audit ever enters the cache.
	v.memoPublish()
	return v.Stats, carry, nil
}

// preprocess implements Figure 14's Preprocess.
func (v *Verifier) preprocess() {
	if err := v.tr.CheckBalanced(); err != nil {
		core.Rejectf("%v", err)
	}
	for _, e := range v.tr.Events {
		rid := core.RID(e.RID)
		v.inTrace[rid] = true
		v.ids.rid(rid)
		if e.Kind == trace.Req {
			v.inputs[rid] = e.Data
		} else {
			v.outputs[rid] = e.Data
		}
	}
	v.Stats.Requests = len(v.inputs)

	v.buildVarLogIndex()
	v.runInit()
	v.injectCarry()
	v.checkVarLogsKnown()
	v.buildNondetIndex()
	v.buildLayout()
	v.preprocessEdges()
}

// runInit executes the application's initialization function determinis-
// tically at the verifier (Figure 14 line 20), populating global handlers
// and variable state.
func (v *Verifier) runInit() {
	io := &initOps{v: v, g: &groupExec{v: v}}
	if v.cfg.App.Init != nil {
		ictx := core.NewContext(io, []core.RID{core.InitRID}, core.InitHID, "", "", core.InitLabel)
		v.cfg.App.Init(ictx)
	}
	io.done = true
	for _, re := range v.globalHandlers {
		if re.event == v.cfg.App.RequestEvent {
			v.requestFns = append(v.requestFns, re.fn)
			v.requestHIDs = append(v.requestHIDs, core.RequestHID(re.fn, re.event))
		}
	}
	if len(v.requestFns) == 0 {
		// Advice-independent: the configured application itself is unusable.
		core.RejectCodef(core.RejectInternalFault, "application registers no request handlers")
	}
}

func (v *Verifier) buildNondetIndex() {
	for _, e := range v.adv.Nondet {
		o := v.ids.intern(e.Op)
		if _, dup := v.nondet[o]; dup {
			core.Rejectf("duplicate nondet entry at %v", e.Op)
		}
		v.nondet[o] = e.Value
	}
}

// addTimePrecedenceEdges builds Orochi's time-precedence graph with O(n)
// edges: a chain of barrier nodes follows the trace; each response points
// into the chain and each request is pointed at by the chain, so "response
// delivered before request arrived" facts are all present transitively.
func (v *Verifier) addTimePrecedenceEdges(s *esink) {
	eg := v.eg
	prevBar := -1
	for i, e := range v.tr.Events {
		rid := core.RID(e.RID)
		switch e.Kind {
		case trace.Req:
			s.addNode(eg.reqID(rid))
			if prevBar >= 0 {
				s.addEdge(eg.barID(prevBar), eg.reqID(rid))
			}
		case trace.Resp:
			bar := i
			if prevBar >= 0 {
				s.addEdge(eg.barID(prevBar), eg.barID(bar))
			}
			s.addEdge(eg.respID(rid), eg.barID(bar))
			prevBar = bar
		}
	}
}

// addProgramEdges implements Figure 14's AddProgramEdges: one node per
// operation of every advised handler activation, chained in program order.
// Validation already happened in buildLayout, so this phase is pure integer
// arithmetic over the slot table — the hottest preprocess loop runs with
// zero map lookups.
func (v *Verifier) addProgramEdges(s *esink) {
	for _, sl := range v.eg.slotList {
		hEnd := sl.base + uint32(sl.n) + 1
		s.addNode(sl.base)
		s.addNode(hEnd)
		for i := uint32(1); i <= uint32(sl.n); i++ {
			s.poll()
			s.addEdge(sl.base+i-1, sl.base+i)
		}
		s.addEdge(sl.base+uint32(sl.n), hEnd)
	}
}

// addBoundaryEdges implements Figure 15: request-start edges to request
// handlers, and response edges around the operation that delivered the
// response.
func (v *Verifier) addBoundaryEdges(s *esink) {
	eg := v.eg
	// Request handler hids are computable from the globally registered
	// request functions (hid = (fn, null, 0), Figure 18 line 11).
	reqHIDs := make(map[core.HID]bool, len(v.requestHIDs))
	for _, hid := range v.requestHIDs {
		reqHIDs[hid] = true
	}
	// slotList is ordered by (sorted rid, sorted hid) — the same nested
	// sorted iteration the map-keyed engine used.
	for _, sl := range eg.slotList {
		if reqHIDs[sl.hid] {
			s.addEdge(eg.reqID(sl.rid), sl.base)
		}
	}
	for _, rid := range sortedKeys(v.inputs) {
		at, ok := v.adv.ResponseEmittedBy[rid]
		if !ok {
			core.Rejectf("responseEmittedBy missing for %s", rid)
		}
		counts := v.adv.OpCounts[rid]
		n, ok := counts[at.HID]
		if !ok || at.OpNum < 0 || at.OpNum > n {
			core.Rejectf("responseEmittedBy for %s names unknown operation (%s,%d)", rid, at.HID, at.OpNum)
		}
		si, _ := eg.slotNamed(rid, at.HID)
		at0 := eg.slotList[si].base + uint32(at.OpNum)
		s.addEdge(at0, eg.respID(rid))
		if at.OpNum == n {
			s.addEdge(eg.respID(rid), eg.hEndID(si))
		} else {
			s.addEdge(eg.respID(rid), at0+1)
		}
	}
}

// checkOpIsValid implements Figure 16's CheckOpIsValid: the operation's
// handler must be advised for this request, the op number must be in range,
// and no other log entry may claim the same operation. It returns the op's
// node id.
func (v *Verifier) checkOpIsValid(rid core.RID, hid core.HID, opnum int, loc opLoc) uint32 {
	counts, ok := v.adv.OpCounts[rid]
	if !ok {
		core.Rejectf("log entry for request %s with no opcounts", rid)
	}
	n, ok := counts[hid]
	if !ok {
		core.Rejectf("log entry for unadvised handler (%s,%s)", rid, hid)
	}
	if opnum < 1 || opnum > n {
		core.Rejectf("log entry op number %d out of range [1,%d] for (%s,%s)", opnum, n, rid, hid)
	}
	si, _ := v.eg.slotNamed(rid, hid)
	id := v.eg.slotList[si].base + uint32(opnum)
	if _, dup := v.opLocs[id]; dup {
		core.Rejectf("two log entries claim operation %v", core.Op{RID: rid, HID: hid, Num: opnum})
	}
	v.opLocs[id] = loc
	v.claimed = append(v.claimed, id)
	return id
}

// addHandlerRelatedEdges implements Figure 16's AddHandlerRelatedEdges:
// handler-log precedence edges, the per-request Registered set, and
// activation edges from emits to the handlers they activate.
//
// An emit at the same (handler, op) activates the same hids in every request
// of that shape, so each hid digest is computed once per epoch.
func (v *Verifier) addHandlerRelatedEdges(s *esink) {
	eg := v.eg
	type hidKey struct {
		fn     core.FunctionID
		event  core.EventName
		parent uint32
		emitOp int
	}
	hids := make(map[hidKey]core.HID)
	for _, rid := range sortedKeys(v.adv.HandlerLogs) {
		log := v.adv.HandlerLogs[rid]
		if !v.inTrace[rid] {
			core.Rejectf("handler log for request %s absent from trace", rid)
		}
		registered := make(map[regEntry]bool)
		var prev uint32
		for i := range log {
			op := &log[i]
			s.poll()
			cur := v.checkOpIsValid(rid, op.HID, op.OpNum, opLoc{hop: op})
			if i != 0 {
				s.addEdge(prev, cur)
			}
			prev = cur
			switch op.Kind {
			case advice.OpRegister:
				for _, ev := range op.Events {
					registered[regEntry{event: ev, fn: op.Fn}] = true
				}
			case advice.OpUnregister:
				delete(registered, regEntry{event: op.Event, fn: op.Fn})
			case advice.OpEmit:
				var set []int32
				parent := v.ids.hidOf[op.HID] // advised, so interned
				add := func(fn core.FunctionID) {
					k := hidKey{fn: fn, event: op.Event, parent: parent, emitOp: op.OpNum}
					hid, ok := hids[k]
					if !ok {
						hid = core.ComputeHID(fn, op.Event, op.HID, op.OpNum)
						hids[k] = hid
					}
					if _, ok := v.adv.OpCounts[rid][hid]; !ok {
						core.Rejectf("emit %v activates handler %s not advised for %s", core.Op{RID: rid, HID: op.HID, Num: op.OpNum}, hid, rid)
					}
					si, _ := eg.slotNamed(rid, hid)
					set = append(set, si)
					s.addEdge(cur, eg.slotList[si].base)
				}
				for _, re := range v.globalHandlers {
					if re.event == op.Event {
						add(re.fn)
					}
				}
				for _, re := range sortedKeysFunc(registered, regEntryLess) {
					if re.event == op.Event {
						add(re.fn)
					}
				}
				v.activated[cur] = eg.hidOrder(set)
			default:
				core.Rejectf("unknown handler-log op kind %d", op.Kind)
			}
		}
	}
}
