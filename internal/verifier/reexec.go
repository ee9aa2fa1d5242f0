package verifier

import (
	"sort"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// reExec implements Figure 18: requests are re-executed in control-flow
// groups (equal tags), each group running once through multivalues. After
// all groups, the verifier checks that every advised handler was executed
// and every request responded.
func (v *Verifier) reExec() {
	var order []string
	groups := make(map[string][]core.RID)
	for _, ridStr := range v.tr.RIDs() {
		rid := core.RID(ridStr)
		tag, ok := v.adv.Tags[rid]
		if !ok {
			core.Rejectf("request %s has no control-flow tag", rid)
		}
		if _, seen := groups[tag]; !seen {
			order = append(order, tag)
		}
		groups[tag] = append(groups[tag], rid)
	}
	v.Stats.Groups = len(order)
	if v.cfg.Memo == nil && (v.workers() <= 1 || len(order) <= 1) {
		// Immediate: each group applies its intents to shared state as it
		// replays. This is the reference the buffered engine is
		// differentially tested against.
		for _, tag := range order {
			v.runGroup(groups[tag], nil)
		}
	} else {
		v.reExecBuffered(order, groups)
	}

	// Figure 18 line 64: every handler in the advice must have been
	// re-executed.
	for _, rid := range sortedKeys(v.adv.OpCounts) {
		for _, hid := range sortedKeys(v.adv.OpCounts[rid]) {
			if !v.executed[rid][hid] {
				core.RejectCodef(core.RejectLogMismatch, "advised handler (%s,%s) was never re-executed", rid, hid)
			}
		}
	}
	for _, rid := range sortedKeys(v.inputs) {
		if !v.responded[rid] {
			core.RejectCodef(core.RejectLogMismatch, "re-execution produced no response for %s", rid)
		}
	}
}

type groupAct struct {
	hid     core.HID
	fn      core.FunctionID
	event   core.EventName
	payload *mv.MV
}

// groupExec re-executes one control-flow group; it implements core.Ops for
// the group's contexts.
type groupExec struct {
	v        *Verifier
	rids     []core.RID
	parentOf map[core.HID]core.HID
	active   []groupAct
	txnum    map[core.TxID]int
	// executed and responded are the group's own duplicate-check sets.
	// Requests are partitioned across groups by tag, and a group activates
	// each handler for all of its requests at once, so these group-local
	// views see every duplicate the shared v.executed / v.responded would.
	executed  map[core.HID]bool
	responded []bool // by slot in rids
	// sizes normalises and sizes the group's re-executed values; it is the
	// group's own, so it never crosses to another worker.
	sizes value.Sizes
	// eff is the group's private effect buffer when re-execution is
	// buffered; nil means intents apply to shared state immediately.
	eff *groupEffects
}

// effect is the only way a group replay changes shared audit state: the
// intent is applied at once (immediate engine, init replay, carry injection)
// or recorded for the coordinator to apply at the group's canonical merge
// position (buffered engine). Either way the mutation itself is v.apply.
func (g *groupExec) effect(in intent) {
	if g.eff == nil {
		g.v.apply(&in)
		return
	}
	if in.kind == effDict {
		// The group reads its own writes back from its overlay; see
		// findNearestRPrecedingWrite.
		k := vkey{varID: in.vv.id, rid: in.op.RID, hid: in.op.HID}
		g.eff.overlay[k] = append(g.eff.overlay[k], dictEntry{num: in.op.Num, val: in.val})
	}
	g.eff.intents = append(g.eff.intents, in)
}

// poll is v.poll for code that may run on a group worker: there cancellation
// is the only budget that can be checked race-free (the graph is frozen
// during reExec), and the counter is per-group so v.pollN stays unshared.
func (g *groupExec) poll() {
	if g.eff == nil {
		g.v.poll()
		return
	}
	g.eff.pollN++
	if g.eff.pollN%pollInterval == 0 {
		g.v.checkCtx()
	}
}

func (v *Verifier) runGroup(rids []core.RID, eff *groupEffects) {
	g := &groupExec{
		v:         v,
		rids:      rids,
		parentOf:  make(map[core.HID]core.HID),
		txnum:     make(map[core.TxID]int),
		executed:  make(map[core.HID]bool),
		responded: make([]bool, len(rids)),
		eff:       eff,
	}
	// Step (1) of Figure 18: enqueue the request handlers with the request
	// inputs; every request in the group must advise every request handler.
	inputs := make([]value.V, len(rids))
	for i, rid := range rids {
		inputs[i] = v.inputs[rid]
	}
	in := mv.FromVals(inputs)
	for _, fn := range v.requestFns {
		hid := core.RequestHID(fn, v.cfg.App.RequestEvent)
		for _, rid := range rids {
			if _, ok := v.adv.OpCounts[rid][hid]; !ok {
				core.Rejectf("request handler %s not advised for %s", hid, rid)
			}
		}
		g.parentOf[hid] = core.InitHID
		g.active = append(g.active, groupAct{hid: hid, fn: fn, event: v.cfg.App.RequestEvent, payload: in})
	}
	// Step (2): run handlers from the active queue to completion.
	for len(g.active) > 0 {
		g.poll()
		act := g.active[0]
		g.active = g.active[1:]
		if g.executed[act.hid] {
			core.RejectCodef(core.RejectLogMismatch, "handler (%s,%s) re-executed twice", rids[0], act.hid)
		}
		g.executed[act.hid] = true
		for _, rid := range rids {
			g.effect(intent{kind: effExecuted, op: core.Op{RID: rid, HID: act.hid}})
		}
		ctx := core.NewContext(g, rids, act.hid, act.fn, act.event, core.InitLabel)
		v.cfg.App.Func(act.fn)(ctx, act.payload)
		// Handler exit (Figure 18 line 60): the advised op count must match
		// the re-executed count exactly.
		for _, rid := range rids {
			if n := v.adv.OpCounts[rid][act.hid]; n != ctx.OpsIssued() {
				core.RejectCodef(core.RejectLogMismatch, "handler (%s,%s) advised %d ops but re-executed %d", rid, act.hid, n, ctx.OpsIssued())
			}
		}
		g.effect(intent{kind: effRerun})
	}
}

// checkWithin enforces Figure 18 line 43 / Figure 19 lines 5 and 19: an op
// number beyond the advised count is a divergence between advice and replay.
func (g *groupExec) checkWithin(ctx *core.Context, opnum int) {
	g.poll()
	for _, rid := range g.rids {
		if n := g.v.adv.OpCounts[rid][ctx.HID()]; opnum > n {
			core.RejectCodef(core.RejectLogMismatch, "handler (%s,%s) exceeded its advised %d operations", rid, ctx.HID(), n)
		}
	}
}

// checkHandlerOp implements Figure 19's CheckHandlerOp for one request: the
// re-executed handler operation must match the advice's log entry at this
// position exactly.
func (g *groupExec) checkHandlerOp(rid core.RID, hid core.HID, opnum int, want advice.HandlerOp) *advice.HandlerOp {
	op := core.Op{RID: rid, HID: hid, Num: opnum}
	loc, ok := g.v.opMap[op]
	if !ok || loc.isTx || loc.rid != rid {
		core.RejectCodef(core.RejectLogMismatch, "handler operation %v not found in handler log", op)
	}
	e := &g.v.adv.HandlerLogs[rid][loc.idx]
	if e.Kind != want.Kind || e.Event != want.Event || e.Fn != want.Fn {
		core.RejectCodef(core.RejectLogMismatch, "handler operation %v does not match logged %s", op, e.Kind)
	}
	if want.Kind == advice.OpRegister {
		if len(e.Events) != len(want.Events) {
			core.RejectCodef(core.RejectLogMismatch, "register %v logged with different event set", op)
		}
		for i := range e.Events {
			if e.Events[i] != want.Events[i] {
				core.RejectCodef(core.RejectLogMismatch, "register %v logged with different event set", op)
			}
		}
	}
	g.effect(intent{kind: effOpConsumed, op: op})
	return e
}

// Emit checks the handler-log entries, verifies that all requests in the
// group activate the same handlers (Figure 19's ActivateHandlers), and
// enqueues the activated handlers with the emit's payload.
func (g *groupExec) Emit(ctx *core.Context, opnum int, event core.EventName, payload *mv.MV) {
	g.checkWithin(ctx, opnum)
	var set map[core.HID]bool
	for i, rid := range g.rids {
		g.checkHandlerOp(rid, ctx.HID(), opnum, advice.HandlerOp{Kind: advice.OpEmit, Event: event})
		s := g.v.activated[core.Op{RID: rid, HID: ctx.HID(), Num: opnum}]
		if i == 0 {
			set = s
			continue
		}
		if len(s) != len(set) {
			core.RejectCodef(core.RejectLogMismatch, "emit (%s,%d) activates different handlers across the group", ctx.HID(), opnum)
		}
		//karousos:nondeterminism-ok set-equality sweep; the rejection message is identical no matter which member differs
		for hid := range set {
			if !s[hid] {
				core.RejectCodef(core.RejectLogMismatch, "emit (%s,%d) activates different handlers across the group", ctx.HID(), opnum)
			}
		}
	}
	hids := make([]core.HID, 0, len(set))
	for hid := range set {
		hids = append(hids, hid)
	}
	sort.Slice(hids, func(i, j int) bool { return hids[i] < hids[j] })
	for _, hid := range hids {
		fn, ok := g.v.fnOfActivated(ctx.HID(), opnum, event, hid)
		if !ok {
			core.Rejectf("cannot resolve function for activated handler %s", hid)
		}
		g.parentOf[hid] = ctx.HID()
		g.active = append(g.active, groupAct{hid: hid, fn: fn, event: event, payload: payload})
	}
}

// fnOfActivated inverts ComputeHID over the application's function table:
// the activated hid determines the function because hids are digests of
// (fn, event, parent, emit op).
func (v *Verifier) fnOfActivated(parent core.HID, opnum int, event core.EventName, hid core.HID) (core.FunctionID, bool) {
	for _, fn := range sortedKeys(v.cfg.App.Funcs) {
		if core.ComputeHID(fn, event, parent, opnum) == hid {
			return fn, true
		}
	}
	return "", false
}

// Register checks the logged register operation.
func (g *groupExec) Register(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	g.checkWithin(ctx, opnum)
	for _, rid := range g.rids {
		g.checkHandlerOp(rid, ctx.HID(), opnum, advice.HandlerOp{
			Kind: advice.OpRegister, Events: []core.EventName{event}, Fn: fn,
		})
	}
}

// Unregister checks the logged unregister operation.
func (g *groupExec) Unregister(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	g.checkWithin(ctx, opnum)
	for _, rid := range g.rids {
		g.checkHandlerOp(rid, ctx.HID(), opnum, advice.HandlerOp{
			Kind: advice.OpUnregister, Event: event, Fn: fn,
		})
	}
}

// TxOp implements Figure 19's CheckStateOp for the whole group: each
// request's operation is checked against its transaction log; GETs are fed
// from their dictating PUT's contents; a logged tx_abort at this position
// replays as a failed operation (the store had aborted the transaction).
func (g *groupExec) TxOp(ctx *core.Context, opnum int, tx *core.Tx, op core.TxOpType, key *mv.MV, val *mv.MV) (*mv.MV, bool) {
	g.checkWithin(ctx, opnum)
	g.txnum[tx.ID]++
	idx := g.txnum[tx.ID]

	vals := make([]value.V, len(g.rids))
	aborted := 0
	for i, rid := range g.rids {
		cur := core.Op{RID: rid, HID: ctx.HID(), Num: opnum}
		loc, ok := g.v.opMap[cur]
		if !ok || !loc.isTx || loc.rid != rid || loc.tid != tx.ID || loc.idx != idx {
			core.RejectCodef(core.RejectLogMismatch, "state operation %v does not match transaction log position (%s,%d)", cur, tx.ID, idx)
		}
		e := g.v.txIndex[txRef{rid: rid, tid: tx.ID}].Ops[idx-1]
		g.effect(intent{kind: effOpConsumed, op: cur})
		if e.Type == core.TxAbort && op != core.TxAbort {
			// The store aborted this transaction at this operation
			// (conflict) or the commit failed; replay the failure.
			aborted++
			continue
		}
		if e.Type != op {
			core.RejectCodef(core.RejectLogMismatch, "state operation %v is %s but log records %s", cur, op, e.Type)
		}
		switch op {
		case core.TxScan:
			k, _ := key.At(i).(string)
			if e.Key != k {
				core.RejectCodef(core.RejectLogMismatch, "SCAN %v on prefix %q but log records %q", cur, k, e.Key)
			}
			rows := make([]value.V, len(e.ReadSet))
			for j, sr := range e.ReadSet {
				rows[j] = map[string]value.V{
					"key":   sr.Key,
					"value": g.v.txOpAt(sr.ReadFrom).Contents,
				}
			}
			vals[i] = rows
		case core.TxGet:
			k, _ := key.At(i).(string)
			if e.Key != k {
				core.RejectCodef(core.RejectLogMismatch, "GET %v on key %q but log records %q", cur, k, e.Key)
			}
			if e.ReadFrom == nil {
				vals[i] = nil
			} else {
				vals[i] = g.v.txOpAt(*e.ReadFrom).Contents
			}
		case core.TxPut:
			k, _ := key.At(i).(string)
			if e.Key != k {
				core.RejectCodef(core.RejectLogMismatch, "PUT %v on key %q but log records %q", cur, k, e.Key)
			}
			if got, _ := g.sizes.Normalize(val.At(i)); !value.Equal(e.Contents, got) {
				core.RejectCodef(core.RejectLogMismatch, "PUT %v writes %s but log records %s", cur, value.String(val.At(i)), value.String(e.Contents))
			}
		}
	}
	if aborted > 0 {
		if aborted != len(g.rids) {
			core.RejectCodef(core.RejectLogMismatch, "transaction %s aborted for part of the group only", tx.ID)
		}
		return nil, false
	}
	if op == core.TxGet || op == core.TxScan {
		return mv.FromVals(vals), true
	}
	return nil, true
}

// Respond implements Figure 18 lines 56–58 and step (3): responseEmittedBy
// must name exactly this operation point, and the produced output must match
// the trace byte-for-byte.
func (g *groupExec) Respond(ctx *core.Context, opsIssued int, payload *mv.MV) {
	for i, rid := range g.rids {
		at := g.v.adv.ResponseEmittedBy[rid]
		if at.HID != ctx.HID() || at.OpNum != opsIssued {
			core.RejectCodef(core.RejectLogMismatch, "request %s responded at (%s,%d) but advice says (%s,%d)", rid, ctx.HID(), opsIssued, at.HID, at.OpNum)
		}
		if g.responded[i] {
			core.RejectCodef(core.RejectLogMismatch, "request %s responded twice during re-execution", rid)
		}
		g.responded[i] = true
		g.effect(intent{kind: effResponded, op: core.Op{RID: rid}})
		got, _ := g.sizes.Normalize(payload.At(i))
		if !value.Equal(got, g.v.outputs[rid]) {
			core.RejectCodef(core.RejectOutputMismatch, "request %s re-executed output %s does not match trace %s",
				rid, value.String(got), value.String(g.v.outputs[rid]))
		}
	}
}

// Branch implements the divergence check of Figure 18 line 32: all requests
// in a group must take the same branch.
func (g *groupExec) Branch(ctx *core.Context, site string, cond *mv.MV) bool {
	b, ok := cond.Bool()
	if !ok {
		core.RejectCodef(core.RejectLogMismatch, "group diverges at branch %q in handler %s", site, ctx.HID())
	}
	return b
}

// Nondet replays recorded non-determinism (§5); gen is ignored.
func (g *groupExec) Nondet(ctx *core.Context, opnum int, site string, gen func(rid core.RID) value.V) *mv.MV {
	g.checkWithin(ctx, opnum)
	vals := make([]value.V, len(g.rids))
	for i, rid := range g.rids {
		rec, ok := g.v.nondet[core.Op{RID: rid, HID: ctx.HID(), Num: opnum}]
		if !ok {
			core.RejectCodef(core.RejectLogMismatch, "no recorded nondeterminism for %v at site %q", core.Op{RID: rid, HID: ctx.HID(), Num: opnum}, site)
		}
		vals[i] = rec
	}
	return mv.FromVals(vals)
}

// VarInit rejects: loggable variables must be created by the init function,
// which runs under initOps.
func (g *groupExec) VarInit(ctx *core.Context, v *core.Variable, opnum int, val *mv.MV) {
	core.Rejectf("variable %s created outside the init function", v.ID)
}

// VarRead replays the OnRead annotation (Figure 20) per request.
func (g *groupExec) VarRead(ctx *core.Context, vr *core.Variable, opnum int) *mv.MV {
	g.checkWithin(ctx, opnum)
	vv := g.v.variable(vr.ID)
	vals := make([]value.V, len(g.rids))
	for i, rid := range g.rids {
		vals[i] = g.annotateRead(vv, core.Op{RID: rid, HID: ctx.HID(), Num: opnum})
	}
	return mv.FromVals(vals)
}

// VarWrite replays the write plus the OnWrite annotation (Figure 21) per
// request.
func (g *groupExec) VarWrite(ctx *core.Context, vr *core.Variable, opnum int, val *mv.MV) {
	g.checkWithin(ctx, opnum)
	vv := g.v.variable(vr.ID)
	for i, rid := range g.rids {
		g.annotateWrite(vv, core.Op{RID: rid, HID: ctx.HID(), Num: opnum}, val.At(i))
	}
}
