package verifier

import (
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
	v.responded = make([]bool, len(v.ids.rids))
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
	// re-executed. Slots are laid out in sorted (rid, hid) order.
	for si, done := range v.executed {
		if !done {
			sl := &v.eg.slotList[si]
			core.RejectCodef(core.RejectLogMismatch, "advised handler (%s,%s) was never re-executed", sl.rid, sl.hid)
		}
	}
	for _, rid := range sortedKeys(v.inputs) {
		if !v.responded[v.ids.ridOf[rid]] {
			core.RejectCodef(core.RejectLogMismatch, "re-execution produced no response for %s", rid)
		}
	}
}

// groupAct is one handler activation of a group: its interned hid and its
// layout slot for each member request.
type groupAct struct {
	h       uint32
	slots   []int32 // by member, as rids
	fn      core.FunctionID
	event   core.EventName
	payload *mv.MV
}

// groupExec re-executes one control-flow group; it implements core.Ops for
// the group's contexts.
type groupExec struct {
	v    *Verifier
	rids []core.RID
	rs   []uint32 // interned rids, by member
	// parentOf maps an activated hid to its activator's, both interned.
	parentOf map[uint32]uint32
	active   []groupAct
	// cur is the running activation. Handlers run one at a time to
	// completion, so every op the group issues belongs to it: ops and the
	// opcount checks come from its cached ids and slots, hashing no string.
	cur   groupAct
	txnum map[core.TxID]int
	// executed and responded are the group's own duplicate-check sets.
	// Requests are partitioned across groups by tag, and a group activates
	// each handler for all of its requests at once, so these group-local
	// views see every duplicate the shared v.executed / v.responded would.
	executed  map[uint32]bool // by interned hid
	responded []bool          // by member
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
		k := vkey{vv: in.vv, a: in.op.act()}
		g.eff.overlay[k] = append(g.eff.overlay[k], dictEntry{num: in.op.n, val: in.val})
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
		rs:        make([]uint32, len(rids)),
		parentOf:  make(map[uint32]uint32),
		txnum:     make(map[core.TxID]int),
		executed:  make(map[uint32]bool),
		responded: make([]bool, len(rids)),
		eff:       eff,
	}
	eg := v.eg
	// Step (1) of Figure 18: enqueue the request handlers with the request
	// inputs; every request in the group must advise every request handler.
	inputs := make([]value.V, len(rids))
	for i, rid := range rids {
		inputs[i] = v.inputs[rid]
		g.rs[i] = v.ids.ridOf[rid]
	}
	in := mv.FromVals(inputs)
	for i, fn := range v.requestFns {
		hid := v.requestHIDs[i]
		h, known := v.ids.hidOf[hid]
		slots := make([]int32, len(rids))
		for j, rid := range rids {
			si, ok := eg.slotOf[dkey{r: g.rs[j], h: h}]
			if !known || !ok {
				core.Rejectf("request handler %s not advised for %s", hid, rid)
			}
			slots[j] = si
		}
		g.parentOf[h] = initH
		g.active = append(g.active, groupAct{h: h, slots: slots, fn: fn, event: v.cfg.App.RequestEvent, payload: in})
	}
	// Step (2): run handlers from the active queue to completion.
	for len(g.active) > 0 {
		g.poll()
		act := g.active[0]
		g.active = g.active[1:]
		hid := v.ids.hids[act.h]
		if g.executed[act.h] {
			core.RejectCodef(core.RejectLogMismatch, "handler (%s,%s) re-executed twice", rids[0], hid)
		}
		g.executed[act.h] = true
		for _, r := range g.rs {
			g.effect(intent{kind: effExecuted, op: op{r: r, h: act.h}})
		}
		g.cur = act
		ctx := core.NewContext(g, rids, hid, act.fn, act.event, core.InitLabel)
		v.cfg.App.Func(act.fn)(ctx, act.payload)
		// Handler exit (Figure 18 line 60): the advised op count must match
		// the re-executed count exactly.
		for i, rid := range rids {
			if n := eg.slotList[act.slots[i]].n; n != ctx.OpsIssued() {
				core.RejectCodef(core.RejectLogMismatch, "handler (%s,%s) advised %d ops but re-executed %d", rid, hid, n, ctx.OpsIssued())
			}
		}
		g.effect(intent{kind: effRerun})
	}
}

// opAt is member i's op number opnum in the running activation.
func (g *groupExec) opAt(i, opnum int) op { return op{r: g.rs[i], h: g.cur.h, n: opnum} }

// nodeAt is opAt's node id; opnum must be within the advised count.
func (g *groupExec) nodeAt(i, opnum int) uint32 {
	return g.v.eg.slotList[g.cur.slots[i]].base + uint32(opnum)
}

// checkWithin enforces Figure 18 line 43 / Figure 19 lines 5 and 19: an op
// number beyond the advised count is a divergence between advice and replay.
func (g *groupExec) checkWithin(ctx *core.Context, opnum int) {
	g.poll()
	for i, si := range g.cur.slots {
		if n := g.v.eg.slotList[si].n; opnum > n {
			core.RejectCodef(core.RejectLogMismatch, "handler (%s,%s) exceeded its advised %d operations", g.rids[i], ctx.HID(), n)
		}
	}
}

// checkHandlerOp implements Figure 19's CheckHandlerOp for member i: the
// re-executed handler operation must match the advice's log entry at this
// position exactly.
func (g *groupExec) checkHandlerOp(i int, ctx *core.Context, opnum int, want advice.HandlerOp) {
	op := core.Op{RID: g.rids[i], HID: ctx.HID(), Num: opnum}
	e := g.v.opLocs[g.nodeAt(i, opnum)].hop
	if e == nil {
		core.RejectCodef(core.RejectLogMismatch, "handler operation %v not found in handler log", op)
	}
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
	g.effect(intent{kind: effOpConsumed, op: g.opAt(i, opnum)})
}

// Emit checks the handler-log entries, verifies that all requests in the
// group activate the same handlers (Figure 19's ActivateHandlers), and
// enqueues the activated handlers with the emit's payload. Each member's
// activated list is already in hid order (addHandlerRelatedEdges), so set
// equality is list equality.
func (g *groupExec) Emit(ctx *core.Context, opnum int, event core.EventName, payload *mv.MV) {
	g.checkWithin(ctx, opnum)
	eg := g.v.eg
	lists := make([][]int32, len(g.rids))
	for i := range g.rids {
		g.checkHandlerOp(i, ctx, opnum, advice.HandlerOp{Kind: advice.OpEmit, Event: event})
		lists[i] = g.v.activated[g.nodeAt(i, opnum)]
		if len(lists[i]) != len(lists[0]) {
			core.RejectCodef(core.RejectLogMismatch, "emit (%s,%d) activates different handlers across the group", ctx.HID(), opnum)
		}
		for k, si := range lists[i] {
			if eg.slotList[si].h != eg.slotList[lists[0][k]].h {
				core.RejectCodef(core.RejectLogMismatch, "emit (%s,%d) activates different handlers across the group", ctx.HID(), opnum)
			}
		}
	}
	for k, si := range lists[0] {
		h := eg.slotList[si].h
		hid := g.v.ids.hids[h]
		fn, ok := g.v.fnOfActivated(ctx.HID(), opnum, event, hid)
		if !ok {
			core.Rejectf("cannot resolve function for activated handler %s", hid)
		}
		slots := make([]int32, len(g.rids))
		for i := range slots {
			slots[i] = lists[i][k]
		}
		g.parentOf[h] = g.cur.h
		g.active = append(g.active, groupAct{h: h, slots: slots, fn: fn, event: event, payload: payload})
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
	for i := range g.rids {
		g.checkHandlerOp(i, ctx, opnum, advice.HandlerOp{
			Kind: advice.OpRegister, Events: []core.EventName{event}, Fn: fn,
		})
	}
}

// Unregister checks the logged unregister operation.
func (g *groupExec) Unregister(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	g.checkWithin(ctx, opnum)
	for i := range g.rids {
		g.checkHandlerOp(i, ctx, opnum, advice.HandlerOp{
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
		loc := g.v.opLocs[g.nodeAt(i, opnum)]
		if loc.tl == nil || loc.tl.TID != tx.ID || loc.idx != idx {
			core.RejectCodef(core.RejectLogMismatch, "state operation %v does not match transaction log position (%s,%d)", cur, tx.ID, idx)
		}
		e := &loc.tl.Ops[idx-1]
		g.effect(intent{kind: effOpConsumed, op: g.opAt(i, opnum)})
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
		g.effect(intent{kind: effResponded, op: op{r: g.rs[i]}})
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
		rec, ok := g.v.nondet[g.opAt(i, opnum)]
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
	for i := range g.rids {
		vals[i] = g.annotateRead(vv, g.opAt(i, opnum))
	}
	return mv.FromVals(vals)
}

// VarWrite replays the write plus the OnWrite annotation (Figure 21) per
// request.
func (g *groupExec) VarWrite(ctx *core.Context, vr *core.Variable, opnum int, val *mv.MV) {
	g.checkWithin(ctx, opnum)
	vv := g.v.variable(vr.ID)
	for i := range g.rids {
		g.annotateWrite(vv, g.opAt(i, opnum), val.At(i))
	}
}
