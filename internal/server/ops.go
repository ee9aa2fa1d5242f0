package server

import (
	"fmt"
	"slices"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// The server implements core.Ops; all contexts it creates have width 1
// (single request) except the init context.

func (s *Server) op(ctx *core.Context, opnum int) core.TaggedOp {
	return core.TaggedOp{
		Op:    core.Op{RID: ctx.RIDs()[0], HID: ctx.HID(), Num: opnum},
		Label: ctx.ActivationLabel(),
	}
}

// VarInit implements Figure 13's OnInitialize: the variable starts life with
// the initial value, and the initialization op is recorded as the most recent
// write. Because I's operations R-precede everything, this write is never
// logged.
func (s *Server) VarInit(ctx *core.Context, v *core.Variable, opnum int, val *mv.MV) {
	s.lock()
	defer s.unlock()
	if s.initDone {
		panic(fmt.Sprintf("server: variable %s created outside Init; loggable variables must be initialized by the init function", v.ID))
	}
	if _, dup := s.vars[v.ID]; dup {
		panic(fmt.Sprintf("server: duplicate variable id %s", v.ID))
	}
	s.vars[v.ID] = &varState{val: val.At(0), last: s.op(ctx, opnum)}
	for _, d := range s.dialects {
		d.logged[v.ID] = make(map[core.Op]bool)
	}
}

func (s *Server) varState(v *core.Variable) *varState {
	vs, ok := s.vars[v.ID]
	if !ok {
		panic(fmt.Sprintf("server: unknown variable %s", v.ID))
	}
	return vs
}

// VarRead implements Figure 13's OnRead.
func (s *Server) VarRead(ctx *core.Context, v *core.Variable, opnum int) *mv.MV {
	s.lock()
	defer s.unlock()
	vs := s.varState(v)
	cur := s.op(ctx, opnum)
	s.logAccess(v.ID, vs, cur, advice.VarLogEntry{Op: cur.Op, Type: advice.AccessRead, HasPrec: true, Prec: vs.last.Op})
	return mv.Scalar(vs.val, 1)
}

// VarWrite implements Figure 13's OnWrite: whether or not it is logged, the
// write becomes the variable's most recent write.
func (s *Server) VarWrite(ctx *core.Context, v *core.Variable, opnum int, val *mv.MV) {
	s.lock()
	defer s.unlock()
	vs := s.varState(v)
	cur := s.op(ctx, opnum)
	contents := val.At(0)
	s.logAccess(v.ID, vs, cur, advice.VarLogEntry{
		Op: cur.Op, Type: advice.AccessWrite, Value: contents,
		HasPrec: true, Prec: vs.last.Op,
	})
	vs.val = contents
	vs.last = cur
}

// logAccess appends e, the entry for access cur, to the variable log of
// every dialect that logs the access, first logging the variable's current
// most-recent write if that dialect has not yet (Figure 13 lines 14–15 and
// 21–22): the lazily logged entry carries the value and no predecessor.
func (s *Server) logAccess(id core.VarID, vs *varState, cur core.TaggedOp, e advice.VarLogEntry) {
	for _, d := range s.dialects {
		if !d.logs(cur, vs.last) {
			continue
		}
		if !d.logged[id][vs.last.Op] {
			d.logVar(id, advice.VarLogEntry{Op: vs.last.Op, Type: advice.AccessWrite, Value: vs.val})
		}
		d.logVar(id, e)
	}
}

// Emit adds the event to the pending set: every function currently registered
// for the name in the request's listener table is activated with the payload,
// with this handler as activator (§3).
func (s *Server) Emit(ctx *core.Context, opnum int, event core.EventName, payload *mv.MV) {
	s.lock()
	defer s.unlock()
	rid := ctx.RIDs()[0]
	if rid == core.InitRID {
		panic("server: emit from the init function is not supported")
	}
	rs := s.requests[rid]
	s.logHandlerOp(rs, advice.HandlerOp{HID: ctx.HID(), OpNum: opnum, Kind: advice.OpEmit, Event: event})
	pv := value.Clone(payload.At(0))
	for _, fn := range rs.listeners[event] {
		hid := core.ComputeHID(fn, event, ctx.HID(), opnum)
		label := ctx.ActivationLabel().Child(rs.childCounters[ctx.HID()])
		rs.childCounters[ctx.HID()]++
		rs.outstanding++
		s.pending = append(s.pending, &activation{
			rid: rid, fn: fn, event: event, hid: hid, label: label, payload: pv,
		})
	}
}

// Register adds fn as a listener for event in the request-local table. The
// init function's registrations instead populate the global handler table.
func (s *Server) Register(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	s.lock()
	defer s.unlock()
	rid := ctx.RIDs()[0]
	if rid == core.InitRID {
		for _, g := range s.globalListeners[event] {
			if g == fn {
				panic(fmt.Sprintf("server: %s already registered for %s", fn, event))
			}
		}
		s.globalListeners[event] = append(s.globalListeners[event], fn)
		return
	}
	rs := s.requests[rid]
	for _, g := range rs.listeners[event] {
		if g == fn {
			panic(fmt.Sprintf("server: %s already registered for %s in request %s", fn, event, rid))
		}
	}
	rs.listeners[event] = append(rs.listeners[event], fn)
	s.logHandlerOp(rs, advice.HandlerOp{
		HID: ctx.HID(), OpNum: opnum, Kind: advice.OpRegister,
		Events: []core.EventName{event}, Fn: fn,
	})
}

// Unregister removes fn as a listener for event in the request-local table.
func (s *Server) Unregister(ctx *core.Context, opnum int, event core.EventName, fn core.FunctionID) {
	s.lock()
	defer s.unlock()
	rid := ctx.RIDs()[0]
	if rid == core.InitRID {
		panic("server: unregister from the init function is not supported")
	}
	rs := s.requests[rid]
	fns := rs.listeners[event]
	for i, g := range fns {
		if g == fn {
			rs.listeners[event] = append(fns[:i:i], fns[i+1:]...)
			break
		}
	}
	s.logHandlerOp(rs, advice.HandlerOp{
		HID: ctx.HID(), OpNum: opnum, Kind: advice.OpUnregister,
		Event: event, Fn: fn,
	})
}

// logHandlerOp appends e to the request's handler log, which every dialect
// shares, and encodes it once for all of them.
func (s *Server) logHandlerOp(rs *reqState, e advice.HandlerOp) {
	if len(s.dialects) == 0 {
		return
	}
	rs.handlerLog = append(rs.handlerLog, e)
	rs.handlerWire = advice.AppendHandlerOp(rs.handlerWire, &e)
}

// TxOp executes one transactional operation against the store and logs it in
// the transaction log (§4.4). A store-level conflict aborts the transaction;
// the server then logs tx_abort at this op number, which is what lets the
// verifier's CheckStateOp replay the failure (Figure 19).
func (s *Server) TxOp(ctx *core.Context, opnum int, tx *core.Tx, op core.TxOpType, key *mv.MV, val *mv.MV) (*mv.MV, bool) {
	s.lock()
	defer s.unlock()
	if s.cfg.Store == nil {
		panic("server: app issued a transactional op but no store is configured")
	}
	rid := ctx.RIDs()[0]
	if rid == core.InitRID {
		panic("server: transactions are not allowed in the init function")
	}
	k := txKey{rid: rid, tid: tx.ID}
	ts := s.txs[k]
	logOp := func(e advice.TxOp) int {
		e.HID = ctx.HID()
		e.OpNum = opnum
		ts.log = append(ts.log, e)
		if len(s.dialects) > 0 {
			ts.wire = advice.AppendTxOp(ts.wire, &e)
		}
		return len(ts.log)
	}
	switch op {
	case core.TxStart:
		if ts != nil {
			panic(fmt.Sprintf("server: duplicate transaction %s in request %s", tx.ID, rid))
		}
		ts = &txState{txn: s.cfg.Store.BeginTx(rid, tx.ID)}
		s.txs[k] = ts
		logOp(advice.TxOp{Type: core.TxStart})
		return nil, true

	case core.TxGet:
		keyStr := keyString(key)
		v, ref, _, err := ts.txn.Get(keyStr)
		if err == kvstore.ErrConflict {
			logOp(advice.TxOp{Type: core.TxAbort})
			s.flushTxLog(k, ts)
			return nil, false
		}
		if err != nil {
			panic("server: " + err.Error())
		}
		e := advice.TxOp{Type: core.TxGet, Key: keyStr}
		if !ref.IsZero() {
			e.ReadFrom = &advice.TxPos{RID: ref.RID, TID: ref.TID, Index: ref.Index}
		}
		logOp(e)
		return mv.Scalar(v, 1), true

	case core.TxPut:
		keyStr := keyString(key)
		contents := val.At(0)
		idx := len(ts.log) + 1
		err := ts.txn.Put(keyStr, contents, kvstore.WriteRef{RID: rid, TID: tx.ID, Index: idx})
		if err == kvstore.ErrConflict {
			logOp(advice.TxOp{Type: core.TxAbort})
			s.flushTxLog(k, ts)
			return nil, false
		}
		if err != nil {
			panic("server: " + err.Error())
		}
		logOp(advice.TxOp{Type: core.TxPut, Key: keyStr, Contents: contents})
		return nil, true

	case core.TxScan:
		prefix := keyString(key)
		keys, vals, refs, err := ts.txn.Scan(prefix)
		if err == kvstore.ErrConflict {
			logOp(advice.TxOp{Type: core.TxAbort})
			s.flushTxLog(k, ts)
			return nil, false
		}
		if err != nil {
			panic("server: " + err.Error())
		}
		e := advice.TxOp{Type: core.TxScan, Key: prefix}
		rows := make([]value.V, len(keys))
		for i := range keys {
			e.ReadSet = append(e.ReadSet, advice.ScanRead{
				Key:      keys[i],
				ReadFrom: advice.TxPos{RID: refs[i].RID, TID: refs[i].TID, Index: refs[i].Index},
			})
			rows[i] = value.Map("key", keys[i], "value", vals[i])
		}
		logOp(e)
		return mv.Scalar(rows, 1), true

	case core.TxCommit:
		if err := ts.txn.Commit(); err != nil {
			panic("server: " + err.Error())
		}
		logOp(advice.TxOp{Type: core.TxCommit})
		s.flushTxLog(k, ts)
		return nil, true

	case core.TxAbort:
		ts.txn.Abort()
		logOp(advice.TxOp{Type: core.TxAbort})
		s.flushTxLog(k, ts)
		return nil, true
	}
	panic(fmt.Sprintf("server: unknown tx op %v", op))
}

func keyString(key *mv.MV) string {
	k, ok := key.At(0).(string)
	if !ok {
		panic(fmt.Sprintf("server: transactional keys must be strings, got %T", key.At(0)))
	}
	return k
}

// flushTxLog moves a finished transaction's log, and its encoding, into the
// advice.
func (s *Server) flushTxLog(k txKey, ts *txState) {
	for _, d := range s.dialects {
		d.adv.TxLogs = append(d.adv.TxLogs, advice.TxLog{RID: k.rid, TID: k.tid, Ops: slices.Clone(ts.log)})
		d.seg.TxLogs = append(d.seg.TxLogs, ts.wire)
	}
}

// Respond delivers the response through the trusted collector and records
// responseEmittedBy (C.1.3).
func (s *Server) Respond(ctx *core.Context, opsIssued int, payload *mv.MV) {
	s.lock()
	defer s.unlock()
	rid := ctx.RIDs()[0]
	rs := s.requests[rid]
	if rs.responded {
		panic(fmt.Sprintf("server: request %s responded twice", rid))
	}
	rs.responded = true
	rs.response = advice.OpAt{HID: ctx.HID(), OpNum: opsIssued}
	rs.respVal = value.Clone(value.Normalize(payload.At(0)))
	s.collector.Response(string(rid), payload.At(0))
}

// Branch returns the direction taken. A request handler's decisions also
// enter its control-flow digest (activationOps.Branch); the init function's
// do not, since init is not part of any request's tag.
func (s *Server) Branch(ctx *core.Context, site string, cond *mv.MV) bool {
	taken, ok := cond.Bool()
	if !ok {
		panic("server: branch condition must be a boolean")
	}
	return taken
}

// Nondet evaluates the generator for the request and records the result in
// the advice so the verifier can replay it (§5).
func (s *Server) Nondet(ctx *core.Context, opnum int, site string, gen func(rid core.RID) value.V) *mv.MV {
	s.lock()
	defer s.unlock()
	rid := ctx.RIDs()[0]
	v := value.Normalize(gen(rid))
	e := advice.NondetEntry{Op: core.Op{RID: rid, HID: ctx.HID(), Num: opnum}, Value: v}
	var wire []byte
	if len(s.dialects) > 0 {
		wire = advice.AppendNondet(nil, &e)
	}
	for _, d := range s.dialects {
		d.adv.Nondet = append(d.adv.Nondet, e)
		d.seg.Nondet = append(d.seg.Nondet, wire...)
	}
	return mv.Scalar(v, 1)
}
