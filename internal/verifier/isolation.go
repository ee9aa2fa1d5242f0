package verifier

import (
	"strings"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/core"
)

// addExternalStateEdges implements Figure 16's AddExternalStateEdges:
// transaction-log validation, the Committed set, read-from (write-read)
// edges between external-state operations, the ReadMap, own-write
// consistency (MyWrites), and lastModification bookkeeping.
//
// It runs in two passes: the first registers every transaction operation in
// OpMap (so read-from references can point at transactions validated later),
// the second processes GETs and PUTs.
func (v *Verifier) addExternalStateEdges(s *esink) {
	seen := make(map[txRef]bool, len(v.adv.TxLogs))
	for i := range v.adv.TxLogs {
		tl := &v.adv.TxLogs[i]
		ref := txRef{rid: tl.RID, tid: tl.TID}
		if seen[ref] {
			core.Rejectf("duplicate transaction log for %s/%s", tl.RID, tl.TID)
		}
		seen[ref] = true
		if !v.inTrace[tl.RID] {
			core.Rejectf("transaction log for request %s absent from trace", tl.RID)
		}
		v.txIndex[ref] = tl
		v.checkTxWellFormed(tl)
		if len(tl.Ops) > 0 && tl.Ops[len(tl.Ops)-1].Type == core.TxCommit {
			v.committed[ref] = true
		}
		for j := range tl.Ops {
			s.poll()
			op := &tl.Ops[j]
			v.checkOpIsValid(tl.RID, op.HID, op.OpNum, opLoc{tl: tl, idx: j + 1})
		}
	}

	for i := range v.adv.TxLogs {
		tl := &v.adv.TxLogs[i]
		ref := txRef{rid: tl.RID, tid: tl.TID}
		myWrites := make(map[string]advice.TxPos)
		for j := range tl.Ops {
			s.poll()
			op := &tl.Ops[j]
			pos := advice.TxPos{RID: tl.RID, TID: tl.TID, Index: j + 1}
			switch op.Type {
			case core.TxScan:
				// Range reads (extension; see core.TxScan): the alleged
				// result set is validated as a set of point reads. Keys must
				// be strictly ascending, match the scanned prefix, and each
				// must read from a PUT on that exact key; a key this
				// transaction wrote must appear reading its own last
				// modification.
				prev := ""
				for i, sr := range op.ReadSet {
					if !strings.HasPrefix(sr.Key, op.Key) {
						core.Rejectf("SCAN %v result key %q outside prefix %q", pos, sr.Key, op.Key)
					}
					if i > 0 && sr.Key <= prev {
						core.Rejectf("SCAN %v result keys not strictly ascending at %q", pos, sr.Key)
					}
					prev = sr.Key
					opw := v.txOpAt(sr.ReadFrom)
					if opw == nil || opw.Type != core.TxPut || opw.Key != sr.Key {
						core.Rejectf("SCAN %v row %q reads from missing or mismatched write %v", pos, sr.Key, sr.ReadFrom)
					}
					// The read-from target may be a carried prior-epoch
					// write, outside the layout — addEdgeN interns it.
					s.addEdgeN(opNode(sr.ReadFrom.RID, opw.HID, opw.OpNum), opNode(tl.RID, op.HID, op.OpNum))
					v.readMap[sr.ReadFrom] = append(v.readMap[sr.ReadFrom], pos)
					if mw, ok := myWrites[sr.Key]; ok && mw != sr.ReadFrom {
						core.RejectCodef(core.RejectIsolationViolation, "SCAN %v ignores own write %v of key %q", pos, mw, sr.Key)
					}
				}
				// Own writes within the prefix must be visible to the scan.
				for _, key := range sortedKeys(myWrites) {
					mw := myWrites[key]
					if !strings.HasPrefix(key, op.Key) {
						continue
					}
					found := false
					for _, sr := range op.ReadSet {
						if sr.Key == key {
							found = true
						}
					}
					if !found {
						core.RejectCodef(core.RejectIsolationViolation, "SCAN %v omits this transaction's own write %v of key %q", pos, mw, key)
					}
				}
			case core.TxGet:
				if op.ReadFrom != nil {
					w := *op.ReadFrom
					opw := v.txOpAt(w)
					if opw == nil {
						core.Rejectf("GET %v reads from unknown operation %v", pos, w)
					}
					if opw.Type != core.TxPut || opw.Key != op.Key {
						core.Rejectf("GET %v reads from non-PUT or wrong key at %v", pos, w)
					}
					// Write-read edge between external state operations
					// (§4.4 footnote: only WR edges; WW/RW would wrongly
					// constrain TxOp order for weakly ordered stores).
					s.addEdgeN(opNode(w.RID, opw.HID, opw.OpNum), opNode(tl.RID, op.HID, op.OpNum))
					v.readMap[w] = append(v.readMap[w], pos)
					// Reading a key this transaction already wrote must
					// observe its own last modification.
					if mw, ok := myWrites[op.Key]; ok && mw != w {
						core.RejectCodef(core.RejectIsolationViolation, "GET %v ignores own write %v of key %q", pos, mw, op.Key)
					}
				} else if mw, ok := myWrites[op.Key]; ok {
					core.RejectCodef(core.RejectIsolationViolation, "GET %v reads key %q as absent despite own write %v", pos, op.Key, mw)
				}
			case core.TxPut:
				myWrites[op.Key] = pos
				if v.committed[ref] {
					v.lastMod[lmKey{rid: tl.RID, tid: tl.TID, key: op.Key}] = j + 1
				}
			}
		}
	}
}

// checkTxWellFormed enforces the structural shape of one transaction log: it
// must start with tx_start, contain no second tx_start, and nothing may
// follow a commit or abort. An honest server produces exactly this shape; a
// violation is advice forgery.
func (v *Verifier) checkTxWellFormed(tl *advice.TxLog) {
	if len(tl.Ops) == 0 || tl.Ops[0].Type != core.TxStart {
		core.Rejectf("transaction %s/%s does not begin with tx_start", tl.RID, tl.TID)
	}
	for j := 1; j < len(tl.Ops); j++ {
		switch tl.Ops[j].Type {
		case core.TxStart:
			core.Rejectf("transaction %s/%s has a second tx_start", tl.RID, tl.TID)
		case core.TxCommit, core.TxAbort:
			if j != len(tl.Ops)-1 {
				core.Rejectf("transaction %s/%s has operations after %s", tl.RID, tl.TID, tl.Ops[j].Type)
			}
		}
	}
}

// txOpAt resolves a TxPos into its log entry — this epoch's transaction
// logs first, then the carried prior-epoch writes — or nil if unknown.
// No ambiguity arises: carried positions name prior-epoch rids, and a
// transaction log for a rid absent from this epoch's trace is rejected
// before any resolution happens.
func (v *Verifier) txOpAt(p advice.TxPos) *advice.TxOp {
	tl, ok := v.txIndex[txRef{rid: p.RID, tid: p.TID}]
	if !ok || p.Index < 1 || p.Index > len(tl.Ops) {
		if op, carried := v.carryTx[p]; carried {
			return op
		}
		return nil
	}
	return &tl.Ops[p.Index-1]
}

// isolationLevelVerification implements Figure 17: it provisionally verifies
// the alleged history against the expected isolation level by extracting the
// per-key write order, checking write-order/lastModification consistency and
// the committed-reads rule, and running Adya's cycle tests.
func (v *Verifier) isolationLevelVerification() {
	writeOrderPerKey := v.extractWriteOrderPerKey()
	v.woPerKey = writeOrderPerKey

	// Committed transactions may only read versions that were installed
	// (Figure 17's AddReadDependencyEdges line 33–36, applicable to levels
	// that exclude G1b: read committed and serializability).
	if v.cfg.Isolation != adya.ReadUncommitted {
		for _, w := range sortedKeysFunc(v.readMap, txPosLess) {
			// A carried write was installed in a prior accepted epoch; it
			// is readable without appearing in this epoch's write order.
			if v.inWO[w] || v.isCarried(w) {
				continue
			}
			for _, r := range v.readMap[w] {
				if v.committed[txRef{rid: r.RID, tid: r.TID}] && (r.RID != w.RID || r.TID != w.TID) {
					core.RejectCodef(core.RejectIsolationViolation, "committed transaction %s/%s reads from non-installed write %v", r.RID, r.TID, w)
				}
			}
		}
	}

	h := &adya.History{WriteOrderPerKey: make(map[string][]adya.Write, len(writeOrderPerKey))}
	for _, ref := range sortedKeysFunc(v.committed, txRefLess) {
		h.Committed = append(h.Committed, adya.TxKey{RID: string(ref.rid), TID: string(ref.tid)})
	}
	for _, key := range sortedKeys(writeOrderPerKey) {
		order := writeOrderPerKey[key]
		ws := make([]adya.Write, len(order))
		for i, p := range order {
			ws[i] = adya.Write{Tx: adya.TxKey{RID: string(p.RID), TID: string(p.TID)}, Pos: p.Index}
		}
		h.WriteOrderPerKey[key] = ws
	}
	for _, w := range sortedKeysFunc(v.readMap, txPosLess) {
		// Reads from carried writes stay out of the Adya history: the epoch
		// seal happens between requests, so every prior-epoch transaction
		// committed before any in-epoch transaction began — cross-boundary
		// anti-dependencies all point forward in time and cannot close an
		// in-epoch cycle (see DESIGN.md §10 for this boundary argument).
		if v.isCarried(w) {
			continue
		}
		for _, r := range v.readMap[w] {
			h.Reads = append(h.Reads, adya.Read{
				From:  adya.Write{Tx: adya.TxKey{RID: string(w.RID), TID: string(w.TID)}, Pos: w.Index},
				By:    adya.TxKey{RID: string(r.RID), TID: string(r.TID)},
				ByPos: r.Index,
			})
		}
	}
	if v.cfg.Isolation == adya.SnapshotIsolation {
		times := v.validateTxOrder()
		if err := adya.CheckSI(h, times); err != nil {
			core.RejectCodef(core.RejectIsolationViolation, "%v", err)
		}
		return
	}
	if err := adya.Check(h, v.cfg.Isolation); err != nil {
		core.RejectCodef(core.RejectIsolationViolation, "%v", err)
	}
}

// validateTxOrder checks the alleged begin/commit order (snapshot isolation
// only) for well-formedness and consistency with the transaction logs and
// write order, and returns each committed transaction's positions.
func (v *Verifier) validateTxOrder() map[adya.TxKey]adya.TxTimes {
	times := make(map[adya.TxKey]adya.TxTimes, len(v.committed))
	seenBegin := make(map[txRef]bool)
	seenCommit := make(map[txRef]bool)
	for i, ev := range v.adv.TxOrder {
		ref := txRef{rid: ev.RID, tid: ev.TID}
		if _, known := v.txIndex[ref]; !known {
			core.Rejectf("txOrder event %d names unknown transaction %s/%s", i, ev.RID, ev.TID)
		}
		key := adya.TxKey{RID: string(ev.RID), TID: string(ev.TID)}
		switch ev.Kind {
		case 0: // begin
			if seenBegin[ref] {
				core.Rejectf("transaction %s/%s begins twice in txOrder", ev.RID, ev.TID)
			}
			seenBegin[ref] = true
			tt := times[key]
			tt.Begin = i
			times[key] = tt
		case 1: // commit
			if seenCommit[ref] {
				core.Rejectf("transaction %s/%s commits twice in txOrder", ev.RID, ev.TID)
			}
			if !v.committed[ref] {
				core.Rejectf("txOrder commits %s/%s but its log does not end in tx_commit", ev.RID, ev.TID)
			}
			seenCommit[ref] = true
			tt := times[key]
			tt.Commit = i
			times[key] = tt
		default:
			core.Rejectf("txOrder event %d has unknown kind %d", i, ev.Kind)
		}
	}
	for _, ref := range sortedKeysFunc(v.committed, txRefLess) {
		if !seenBegin[ref] || !seenCommit[ref] {
			core.Rejectf("committed transaction %s/%s missing begin or commit in txOrder", ref.rid, ref.tid)
		}
	}
	// The write order (binlog) is commit-ordered at an honest server; the
	// alleged orders must agree.
	lastCommitPos := -1
	seenTx := make(map[txRef]bool)
	for _, p := range v.adv.WriteOrder {
		ref := txRef{rid: p.RID, tid: p.TID}
		if seenTx[ref] {
			continue
		}
		seenTx[ref] = true
		pos := times[adya.TxKey{RID: string(p.RID), TID: string(p.TID)}].Commit
		if pos < lastCommitPos {
			core.RejectCodef(core.RejectIsolationViolation, "write order and txOrder disagree on commit order at %s/%s", p.RID, p.TID)
		}
		lastCommitPos = pos
	}
	return times
}

// extractWriteOrderPerKey implements Figure 17's ExtractWriteOrderPerKey:
// the alleged global write order must list exactly the last modifications of
// committed transactions, once each, and is split per key.
func (v *Verifier) extractWriteOrderPerKey() map[string][]advice.TxPos {
	if len(v.adv.WriteOrder) != len(v.lastMod) {
		core.RejectCodef(core.RejectIsolationViolation, "write order has %d entries but the logs imply %d last modifications",
			len(v.adv.WriteOrder), len(v.lastMod))
	}
	perKey := make(map[string][]advice.TxPos)
	for _, p := range v.adv.WriteOrder {
		if v.inWO[p] {
			core.Rejectf("write order lists %v twice", p)
		}
		v.inWO[p] = true
		op := v.txOpAt(p)
		if op == nil || op.Type != core.TxPut {
			core.Rejectf("write order entry %v is not a PUT in the logs", p)
		}
		if v.lastMod[lmKey{rid: p.RID, tid: p.TID, key: op.Key}] != p.Index {
			core.RejectCodef(core.RejectIsolationViolation, "write order entry %v is not a committed last modification of key %q", p, op.Key)
		}
		perKey[op.Key] = append(perKey[op.Key], p)
	}
	return perKey
}
