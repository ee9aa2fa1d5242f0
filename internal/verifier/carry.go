package verifier

import (
	"sort"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// Cross-epoch carry-over for the continuous-audit pipeline. An epoch's
// audit sees only that epoch's trace and advice, but the server's state —
// loggable variables and the KV store — persists across seals. CarryState
// is the verified end-state of the last accepted epoch: the auditor threads
// it into the next epoch's audit (Config.Carry), where it materializes as
// synthetic init-level writes, and extracts the successor state from an
// accepting audit with carryOut.
//
// The construction preserves the audit's two properties at the boundary:
//
//   - Completeness: an honest server rebases each variable's most-recent-
//     write marker onto the same synthetic op identities at every seal
//     (server.DrainAdvice), so its next-epoch advice is exactly what this
//     verifier expects — first accesses go unlogged (init-level ops
//     R-precede everything) and resolve through the carried dictionary.
//   - Soundness: the carried values are not advice. They come from the
//     auditor's own previous accepting audit, are injected after replaying
//     init, and advice that forges a log entry at a carry identity is
//     rejected outright. Carried store writes resolve reads-from references
//     but can never re-enter the write order (they are not last
//     modifications of any in-epoch transaction).

// CarriedWrite is the surviving committed write of one key: its original
// position in a prior epoch's transaction log and its contents.
type CarriedWrite struct {
	Pos      advice.TxPos `json:"pos"`
	Contents value.V      `json:"contents"`
}

// CarryState is the verified server state at an epoch boundary. It
// marshals to JSON, which is how auditd checkpoints it.
type CarryState struct {
	// Vars is the final value of every loggable variable.
	Vars map[core.VarID]value.V `json:"vars"`
	// Store maps each key to the committed write that installed its
	// surviving version.
	Store map[string]CarriedWrite `json:"store"`
}

// Normalize canonicalizes all carried values in place (needed after a JSON
// round trip through a checkpoint file, where numbers and containers come
// back in JSON shapes).
func (c *CarryState) Normalize() {
	for id, val := range c.Vars {
		c.Vars[id] = value.Normalize(val)
	}
	for key, cw := range c.Store {
		c.Store[key] = CarriedWrite{Pos: cw.Pos, Contents: value.Normalize(cw.Contents)}
	}
}

// injectCarry materializes the carried state after init replay: each
// variable gets a synthetic logged write at its carry identity
// {InitRID, InitHID, EpochCarryBase+i} (sorted VarID order — the identity
// agreement with server.DrainAdvice), entering the init-level version
// dictionary so unlogged next-epoch reads resolve to it; carried store
// writes become resolvable TxPos targets for reads-from references.
func (v *Verifier) injectCarry() {
	c := v.cfg.Carry
	if c == nil {
		return
	}
	// The carry came from our own prior audit of the same application, so a
	// mismatch with the program's variables is an auditor-side fault, not
	// advice forgery.
	for _, id := range sortedKeys(c.Vars) {
		if _, ok := v.vars[id]; !ok {
			core.RejectCodef(core.RejectInternalFault, "carry state names unknown variable %s", id)
		}
	}
	ids := make([]string, 0, len(v.vars))
	for id := range v.vars {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	g := &groupExec{v: v} // no requests, no buffer: intents apply immediately
	for i, id := range ids {
		vv := v.vars[core.VarID(id)]
		val, ok := c.Vars[core.VarID(id)]
		if !ok {
			core.RejectCodef(core.RejectInternalFault, "carry state has no value for variable %s", id)
		}
		op := core.Op{RID: core.InitRID, HID: core.InitHID, Num: core.EpochCarryBase + i}
		if _, forged := vv.log[op]; forged {
			core.RejectCodef(core.RejectMalformedAdvice, "advice forges a log entry at carry identity %v of variable %s", op, id)
		}
		val = value.Normalize(val)
		vv.log[op] = &advice.VarLogEntry{Op: op, Type: advice.AccessWrite, Value: val}
		g.annotateWrite(vv, op, val)
	}
	if len(c.Store) > 0 {
		v.carryTx = make(map[advice.TxPos]*advice.TxOp, len(c.Store))
		for key, cw := range c.Store {
			v.carryTx[cw.Pos] = &advice.TxOp{
				Type: core.TxPut, Key: key, Contents: value.Normalize(cw.Contents),
			}
		}
	}
}

// isCarried reports whether p is a carried prior-epoch write.
func (v *Verifier) isCarried(p advice.TxPos) bool {
	_, ok := v.carryTx[p]
	return ok
}

// carryOut extracts the verified end-state after an accepting audit: each
// variable's last write (the end of its write_observer chain — acyclic,
// postprocess already checked) and each key's surviving committed write
// (the tail of the per-key write order, overlaid on the prior carry).
func (v *Verifier) carryOut() *CarryState {
	out := &CarryState{
		Vars:  make(map[core.VarID]value.V, len(v.vars)),
		Store: make(map[string]CarriedWrite),
	}
	if prior := v.cfg.Carry; prior != nil {
		for key, cw := range prior.Store {
			out.Store[key] = cw
		}
	}
	for _, id := range sortedKeys(v.vars) {
		vv := v.vars[id]
		if vv.initial == nil {
			continue
		}
		cur := *vv.initial
		for {
			next, ok := vv.writeObs[cur]
			if !ok {
				break
			}
			cur = next
		}
		out.Vars[id] = v.valueOfWrite(vv, cur)
	}
	for _, key := range sortedKeys(v.woPerKey) {
		order := v.woPerKey[key]
		p := order[len(order)-1]
		op := v.txOpAt(p)
		if op == nil {
			core.RejectCodef(core.RejectInternalFault, "verified write order tail %v has no log entry", p)
		}
		out.Store[key] = CarriedWrite{Pos: p, Contents: op.Contents}
	}
	return out
}

// valueOfWrite returns the value a verified write produced: from its log
// entry when logged, otherwise from the version dictionary (every
// annotated write entered it).
func (v *Verifier) valueOfWrite(vv *vvar, op core.Op) value.V {
	if e, ok := vv.log[op]; ok && e.Type == advice.AccessWrite {
		return e.Value
	}
	for _, en := range vv.dict[dkey{rid: op.RID, hid: op.HID}] {
		if en.num == op.Num {
			return en.val
		}
	}
	core.RejectCodef(core.RejectInternalFault, "verified write %v of variable %s has no recorded value", op, vv.id)
	return nil
}
