package verifier

import (
	"fmt"
	"math"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// vvar is the verifier-side state of one loggable variable (Figure 20's
// OnInitialize): the variable-log index, the version dictionary keyed by
// handler activation, and the read_observers / write_observer / initializer
// bookkeeping that Postprocess turns into WR/WW/RW edges.
type vvar struct {
	id core.VarID
	varLog
	dict     map[dkey][]dictEntry
	readObs  map[op][]op
	writeObs map[op]op
	initial  *op // Figure 20's v.initializer
}

// varLog indexes one variable's log by interned op. order holds the same
// entries in advice order, then the carried ones: the consumption sweep
// walks it instead of the map.
type varLog struct {
	log   map[op]*vlogEntry
	order []*vlogEntry
}

// vlogEntry is one variable-log entry with its op and, when it has one, its
// predecessor interned; consumed marks that re-execution performed it.
type vlogEntry struct {
	*advice.VarLogEntry
	op, prec op
	consumed bool
}

func (l *varLog) add(e *vlogEntry) {
	l.log[e.op] = e
	l.order = append(l.order, e)
}

type dictEntry struct {
	num int
	val value.V
}

func (v *Verifier) variable(id core.VarID) *vvar {
	vv, ok := v.vars[id]
	if !ok {
		core.Rejectf("access to unknown variable %s", id)
	}
	return vv
}

// buildVarLogIndex indexes the advice's variable logs before init runs, so
// that init-time writes can consume their (lazily logged) entries, interning
// every entry's op and predecessor. Duplicate entries for one operation are
// forgery.
func (v *Verifier) buildVarLogIndex() {
	v.rawVarLogs = make(map[core.VarID]*varLog, len(v.adv.VarLogs))
	for _, id := range sortedKeys(v.adv.VarLogs) {
		entries := v.adv.VarLogs[id]
		l := &varLog{log: make(map[op]*vlogEntry, len(entries)), order: make([]*vlogEntry, 0, len(entries))}
		ents := make([]vlogEntry, len(entries))
		for i := range entries {
			e := &entries[i]
			if e.Op.RID != core.InitRID && !v.inTrace[e.Op.RID] {
				core.Rejectf("variable log entry %v for request absent from trace", e.Op)
			}
			ve := &ents[i]
			ve.VarLogEntry, ve.op = e, v.ids.intern(e.Op)
			if _, dup := l.log[ve.op]; dup {
				core.Rejectf("duplicate variable log entry at %v", e.Op)
			}
			if e.HasPrec {
				ve.prec = v.ids.intern(e.Prec)
			}
			l.add(ve)
		}
		v.rawVarLogs[id] = l
	}
}

// checkVarLogsKnown rejects advice that logs variables the program never
// creates.
func (v *Verifier) checkVarLogsKnown() {
	for _, id := range sortedKeys(v.rawVarLogs) {
		if _, ok := v.vars[id]; !ok {
			core.Rejectf("variable log for unknown variable %s", id)
		}
	}
}

// annotateRead implements Figure 20's OnRead for one request: a logged read
// feeds from its logged dictating write; an unlogged read climbs the handler
// tree through the version dictionary (FindNearestRPrecedingWrite). Under
// Orochi-JS semantics every request read must be logged.
func (g *groupExec) annotateRead(vv *vvar, o op) value.V {
	ids := g.v.ids
	if e, ok := vv.log[o]; ok {
		g.effect(intent{kind: effVarConsumed, vv: vv, op: o})
		if e.Type != advice.AccessRead {
			core.RejectCodef(core.RejectLogMismatch, "re-executed read %v logged as write", ids.core(o))
		}
		if !e.HasPrec {
			core.Rejectf("logged read %v has no dictating write", ids.core(o))
		}
		pe, ok := vv.log[e.prec]
		if !ok || pe.Type != advice.AccessWrite {
			core.Rejectf("logged read %v dictated by missing or non-write entry %v", ids.core(o), e.Prec)
		}
		g.effect(intent{kind: effReadObs, vv: vv, prec: e.prec, op: o})
		return pe.Value
	}
	if g.v.cfg.Mode == advice.ModeOrochiJS && o.r != initR {
		core.RejectCodef(core.RejectLogMismatch, "orochi-js: read %v of variable %s is not logged", ids.core(o), vv.id)
	}
	prev, val, found := g.findNearestRPrecedingWrite(vv, o)
	if !found {
		core.RejectCodef(core.RejectLogMismatch, "read %v of variable %s precedes every write", ids.core(o), vv.id)
	}
	g.effect(intent{kind: effReadObs, vv: vv, prec: prev, op: o})
	return val
}

// annotateWrite implements Figure 21's OnWrite for one request: the written
// value always enters the version dictionary; a logged write is
// simulate-and-checked against the log and links its overwritten
// predecessor's write_observer; an unlogged (or lazily logged) write finds
// its R-preceding predecessor through the dictionary. Exactly one write per
// variable may have no predecessor — the initializer. The written value is
// normalised here, and a buffered group adds its size to the memo charge.
func (g *groupExec) annotateWrite(vv *vvar, o op, written value.V) {
	ids := g.v.ids
	val, size := g.sizes.Normalize(written)
	if g.eff != nil {
		g.eff.dictBytes += size
	}
	g.effect(intent{kind: effDict, vv: vv, op: o, val: val})
	if e, ok := vv.log[o]; ok {
		g.effect(intent{kind: effVarConsumed, vv: vv, op: o})
		if e.Type != advice.AccessWrite {
			core.RejectCodef(core.RejectLogMismatch, "re-executed write %v logged as read", ids.core(o))
		}
		if !value.Equal(e.Value, val) {
			core.RejectCodef(core.RejectLogMismatch, "write %v of variable %s produced %s but log records %s",
				ids.core(o), vv.id, value.String(val), value.String(e.Value))
		}
		if e.HasPrec {
			g.effect(intent{kind: effWriteObs, vv: vv, prec: e.prec, op: o})
			return
		}
		// A lazily-logged write carries no predecessor reference; its
		// predecessor is R-ordered before it and is found below.
	} else if g.v.cfg.Mode == advice.ModeOrochiJS && o.r != initR {
		core.RejectCodef(core.RejectLogMismatch, "orochi-js: write %v of variable %s is not logged", ids.core(o), vv.id)
	}
	prev, _, found := g.findNearestRPrecedingWrite(vv, o)
	if found {
		g.effect(intent{kind: effWriteObs, vv: vv, prec: prev, op: o})
		return
	}
	g.effect(intent{kind: effInitial, vv: vv, op: o})
}

// findNearestRPrecedingWrite climbs from the reading/writing handler up the
// activation tree (§4.2): the last earlier write by the same handler, then
// any write by each successive ancestor, ending at the initialization
// activation I.
func (g *groupExec) findNearestRPrecedingWrite(vv *vvar, o op) (op, value.V, bool) {
	r, h, bound := o.r, o.h, o.n
	// The climb is bounded by the activation-tree depth; hids are digests of
	// their parents, so a parentOf cycle cannot arise from honest hashing —
	// but the bound makes "cannot hang" a property of this loop, not of the
	// hash function.
	for depth := 0; ; depth++ {
		g.poll()
		if depth > len(g.parentOf)+1 {
			core.RejectCodef(core.RejectGraphCycle, "activation parent chain of handler %s does not terminate", g.v.ids.hids[o.h])
		}
		// A group worker reads its own overlay for the group's rids. The
		// init-level dictionary (rid == InitRID) is frozen during reExec and
		// only ever holds entries no group wrote, so reading it shared is
		// race-free; entries for another group's rids are unreachable from
		// this climb (dkeys carry this op's rid until the init hop).
		var entries []dictEntry
		if g.eff != nil && r != initR {
			entries = g.eff.overlay[vkey{vv: vv, a: dkey{r: r, h: h}}]
		} else {
			entries = vv.dict[dkey{r: r, h: h}]
		}
		for i := len(entries) - 1; i >= 0; i-- {
			if entries[i].num < bound {
				return op{r: r, h: h, n: entries[i].num}, entries[i].val, true
			}
		}
		if h == initH {
			return op{}, nil, false
		}
		parent, ok := g.parentOf[h]
		if !ok {
			core.RejectCodef(core.RejectLogMismatch, "handler %s has no recorded activator", g.v.ids.hids[h])
		}
		h = parent
		bound = math.MaxInt
		if h == initH {
			r = initR
		}
	}
}

// initOps runs the application's initialization function at the verifier
// (Figure 14 line 20): it creates variables, records global handler
// registrations, and replays init-time variable accesses through the same
// annotations as request code.
type initOps struct {
	v *Verifier
	// g annotates init-level accesses: a group of no requests whose intents
	// apply immediately (init runs alone, before any group exists).
	g    *groupExec
	done bool
}

func (io *initOps) VarInit(ctx *core.Context, vr *core.Variable, opnum int, val *mv.MV) {
	if io.done {
		core.Rejectf("variable %s created outside the init function", vr.ID)
	}
	if _, dup := io.v.vars[vr.ID]; dup {
		core.Rejectf("duplicate variable id %s", vr.ID)
	}
	vv := &vvar{
		id:       vr.ID,
		dict:     make(map[dkey][]dictEntry),
		readObs:  make(map[op][]op),
		writeObs: make(map[op]op),
	}
	if l := io.v.rawVarLogs[vr.ID]; l != nil {
		vv.varLog = *l
	} else {
		vv.log = make(map[op]*vlogEntry)
	}
	io.v.vars[vr.ID] = vv
	// The initialization is the variable's first write.
	io.g.annotateWrite(vv, op{r: initR, h: initH, n: opnum}, val.At(0))
}

func (io *initOps) VarRead(ctx *core.Context, vr *core.Variable, opnum int) *mv.MV {
	vv := io.v.variable(vr.ID)
	val := io.g.annotateRead(vv, op{r: initR, h: initH, n: opnum})
	return mv.Scalar(val, 1)
}

func (io *initOps) VarWrite(ctx *core.Context, vr *core.Variable, opnum int, val *mv.MV) {
	vv := io.v.variable(vr.ID)
	io.g.annotateWrite(vv, op{r: initR, h: initH, n: opnum}, val.At(0))
}

func (io *initOps) Register(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	for _, re := range io.v.globalHandlers {
		if re.event == event && re.fn == fn {
			core.Rejectf("init registers %s for %s twice", fn, event)
		}
	}
	io.v.globalHandlers = append(io.v.globalHandlers, regEntry{event: event, fn: fn})
}

func (io *initOps) Unregister(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	core.Rejectf("unregister is not supported in the init function")
}

func (io *initOps) Emit(ctx *core.Context, opnum int, event core.EventName, payload *mv.MV) {
	core.Rejectf("emit is not supported in the init function")
}

func (io *initOps) TxOp(ctx *core.Context, opnum int, tx *core.Tx, op core.TxOpType, key *mv.MV, val *mv.MV) (*mv.MV, bool) {
	core.Rejectf("transactions are not allowed in the init function")
	return nil, false
}

func (io *initOps) Respond(ctx *core.Context, opsIssued int, payload *mv.MV) {
	core.Rejectf("the init function cannot respond")
}

func (io *initOps) Branch(ctx *core.Context, site string, cond *mv.MV) bool {
	b, ok := cond.Bool()
	if !ok {
		core.Rejectf("non-boolean branch condition in init at %q", site)
	}
	return b
}

func (io *initOps) Nondet(ctx *core.Context, opnum int, site string, gen func(rid core.RID) value.V) *mv.MV {
	core.Rejectf("the init function must be deterministic (nondet at %q)", site)
	return nil
}

// postprocess implements Figure 14's Postprocess: embed the per-variable
// operation histories into G as WR/WW/RW edges (Figure 21's
// AddInternalStateEdges), require that re-execution consumed every log
// entry, and accept iff G is acyclic.
func (v *Verifier) postprocess() {
	v.addInternalStateEdges()
	// G is complete: bound it exactly. The polled checks see it only every
	// pollInterval operations and would let the last stretch of growth
	// through.
	v.checkBudgets()
	v.checkConsumption()
	v.Stats.GraphNodes = v.eg.d.NumNodes()
	v.Stats.GraphEdges = v.eg.d.NumEdges()
	cycle := v.eg.d.FindCycle()
	if v.cfg.DumpGraph != nil {
		label := func(id uint32) string { return gnodeLabel(v.eg.name(id)) }
		if err := v.eg.d.DOT(v.cfg.DumpGraph, "karousos-G", label, cycle); err != nil {
			core.RejectCodef(core.RejectInternalFault, "writing graph dump: %v", err)
		}
	}
	if cycle != nil {
		core.RejectCodef(core.RejectGraphCycle, "execution graph has a cycle of length %d through %v", len(cycle)-1, v.eg.name(cycle[0]))
	}
}

// gnodeLabel renders an execution-graph node for the DOT dump.
func gnodeLabel(n gnode) string {
	short := func(h core.HID) string {
		if len(h) > 8 {
			return string(h[:8])
		}
		return string(h)
	}
	switch n.kind {
	case kReq:
		return fmt.Sprintf("REQ %s", n.rid)
	case kResp:
		return fmt.Sprintf("RESP %s", n.rid)
	case kBar:
		return fmt.Sprintf("t%d", n.op)
	case kHEnd:
		return fmt.Sprintf("%s/%s/end", n.rid, short(n.hid))
	default:
		return fmt.Sprintf("%s/%s/%d", n.rid, short(n.hid), n.op)
	}
}

func (v *Verifier) addInternalStateEdges() {
	// Runs serially on the coordinator after all group effects have merged.
	// Ops resolve to node ids through the layout; carried prior-epoch writes
	// may name ops outside it, and only those intern an overflow gnode.
	eg := v.eg
	s := &esink{v: v}
	visited := make(map[op]bool)
	for _, id := range sortedKeys(v.vars) {
		vv := v.vars[id]
		if vv.initial == nil {
			continue
		}
		cur := *vv.initial
		clear(visited)
		for {
			v.poll()
			if visited[cur] {
				core.RejectCodef(core.RejectGraphCycle, "variable %s has a cyclic write chain through %v", vv.id, v.ids.core(cur))
			}
			visited[cur] = true
			for _, r := range vv.readObs[cur] {
				s.addEdge(eg.nodeOf(cur), eg.nodeOf(r)) // WR
			}
			wo, ok := vv.writeObs[cur]
			if !ok {
				break
			}
			for _, r := range vv.readObs[cur] {
				s.addEdge(eg.nodeOf(r), eg.nodeOf(wo)) // RW (anti-dependency)
			}
			s.addEdge(eg.nodeOf(cur), eg.nodeOf(wo)) // WW
			cur = wo
		}
	}
}

// checkConsumption rejects advice whose log entries were never produced by
// re-execution: a handler-log or transaction-log operation that replay never
// issued, or a variable-log access that replay never performed. Without this
// check a forged "phantom" write could feed logged reads while staying
// invisible to the execution graph.
//
// Each sweep rejects on its least unconsumed entry in ids.less order, the
// order a sort of the entries would give, without sorting them: log-claimed
// ops are layout nodes, and layout node ids ascend in that order (slots are
// laid out in sorted (rid, hid) order, ops by number within a slot), so the
// least unconsumed node id names the entry; a variable's log is scanned in
// advice order for its least unconsumed op under ids.less.
func (v *Verifier) checkConsumption() {
	least, found := uint32(0), false
	for _, id := range v.claimed {
		if !v.opIsConsumed(id) && (!found || id < least) {
			least, found = id, true
		}
	}
	if found {
		n := v.eg.name(least)
		core.RejectCodef(core.RejectLogMismatch, "log entry %v was never produced by re-execution", core.Op{RID: n.rid, HID: n.hid, Num: n.op})
	}
	for _, id := range sortedKeys(v.vars) {
		vv := v.vars[id]
		var least *vlogEntry
		for _, e := range vv.order {
			if !e.consumed && (least == nil || v.ids.less(e.op, least.op)) {
				least = e
			}
		}
		if least != nil {
			core.RejectCodef(core.RejectLogMismatch, "variable log entry %v of %s was never produced by re-execution", least.Op, vv.id)
		}
	}
}
