package server

import (
	"slices"
	"sort"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

// This file is the server side of the continuous-audit pipeline: instead of
// serving one finite workload and materializing the whole trace and advice
// at the end (Run), an HTTP front-end serves requests one at a time
// (ServeOne) and periodically seals an epoch by draining the advice
// accumulated so far (DrainAdvice). The two modes must not be mixed on one
// Server: Run snapshots the store's full binlog, DrainAdvice tracks deltas.

// ServeOne serves a single request to completion — the window-1 case of
// Run's dispatch loop — and returns its normalized response payload. The
// request is recorded through the trusted collector exactly as under Run.
func (s *Server) ServeOne(r Request) (value.V, error) {
	if err := s.serve([]Request{r}, 1); err != nil {
		return nil, err
	}
	s.lock()
	defer s.unlock()
	return s.requests[r.RID].respVal, nil
}

// TakeTrace drains the events recorded by the server's internal collector
// since the previous call. An external front-end that records its own
// ground truth uses this to keep the internal collector's buffer empty.
func (s *Server) TakeTrace() *trace.Trace {
	return s.collector.Trace()
}

// Drained is one dialect's advice handed back by DrainAdvice: the epoch's
// advice and its wire encoding, which is Advice.MarshalBinary's bytes laid
// out from the entries the server encoded as it logged them.
type Drained struct {
	Advice *advice.Advice
	Blob   []byte
}

// DrainAdvice seals the server side of an epoch: it hands back the advice
// collected since the previous drain, with its blob, per collected dialect
// (the zero Drained for one not collected), and rebases the in-memory
// runtime state so the next epoch's advice is self-contained. Building the
// blob copies the logs' pre-encoded bytes; no logged value is encoded here.
//
// Rebasing is the heart of cross-epoch auditing. Each variable's
// most-recent-write marker is reassigned to a synthetic init-level op
// {InitRID, InitHID, EpochCarryBase+i} (variables in sorted id order —
// the identity the verifier reconstructs when it injects carried state, see
// verifier.CarryState). Because init-labeled ops R-precede every request
// op, the first accesses of the next epoch are not R-concurrent with the
// carried write and therefore go unlogged, exactly like first accesses
// after a real init; the verifier resolves them through the carried version
// dictionary. No op identity from a drained epoch ever appears in a later
// epoch's advice, which would otherwise reject as referencing a request
// absent from that epoch's trace.
//
// The store's write order and transaction order are emitted as deltas:
// only binlog installations and tx events since the previous drain.
func (s *Server) DrainAdvice() (kar, oro Drained) {
	s.lock()
	defer s.unlock()
	var wo []advice.TxPos
	var to []advice.TxOrderEvent
	if s.cfg.Store != nil {
		wo, to, s.binlogDrained, s.txEventsDrained = s.storeOrder(s.binlogDrained, s.txEventsDrained)
	}
	for _, d := range s.dialects {
		d.adv.WriteOrder, d.adv.TxOrder = slices.Clone(wo), slices.Clone(to)
		out := Drained{Advice: d.adv, Blob: d.adv.AppendBinary(nil, &d.seg)}
		if d.mode == advice.ModeKarousos {
			kar = out
		} else {
			oro = out
		}
		d.reset()
	}

	// Rebase every variable's last-write marker onto its carry identity.
	ids := make([]string, 0, len(s.vars))
	for id := range s.vars {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for i, id := range ids {
		op := core.Op{RID: core.InitRID, HID: core.InitHID, Num: core.EpochCarryBase + i}
		s.vars[core.VarID(id)].last = core.TaggedOp{Op: op, Label: core.InitLabel}
		for _, d := range s.dialects {
			d.logged[core.VarID(id)] = map[core.Op]bool{op: true}
		}
	}

	// Served requests' per-request state, and their transactions', was
	// already folded into the drained advice; drop it so a long-running
	// server's memory stays bounded. Rids must never repeat across epochs
	// (the HTTP collector assigns them monotonically).
	for rid, rs := range s.requests {
		if rs.outstanding == 0 {
			delete(s.requests, rid)
		}
	}
	for k := range s.txs {
		if _, live := s.requests[k.rid]; !live {
			delete(s.txs, k)
		}
	}
	return kar, oro
}
