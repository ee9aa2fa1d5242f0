package verifier

// Cross-epoch deduplicated re-execution (DESIGN.md §18). The paper's core
// win is deduplicating identical control flow *within* a batch: requests
// with equal tags replay once, together. Steady-state traffic repeats the
// same request shapes epoch after epoch, so the same groups are re-executed
// from scratch at every audit pass. This file extends the deduplication
// *across* epochs: a content-addressed cache maps the digest of a group's
// full input closure to the group's recorded effect intents (parallel.go),
// and on a hit the coordinator rebinds the intents to the new epoch's rids
// and applies them — through the same v.apply every re-executed intent goes
// through — instead of re-executing handler code.
//
// # Soundness: the key covers everything a group can observe
//
// The buffered engine is what makes group replay memoizable: when a group
// runs with an effect buffer it reads ONLY state frozen during reExec — its
// requests' inputs/outputs, its rids' slices of the advice logs, the
// init-level dictionary (deterministic init + injected carry), and resolved
// reads-from targets — and writes only intents. The memo key is the SHA-256
// digest of exactly that read set:
//
//   - an audit-level prefix: application fingerprint, mode, isolation
//     level, and the full init-level version dictionary (which is where
//     both deterministic init writes and the injected carry slice live);
//   - the group tag and group size;
//   - per slot, in trace order: the request input and traced output, the
//     advised opcounts, responseEmittedBy, the full handler log, the
//     request's variable-log entries (with each logged read's dictating
//     write resolved to its observable facts — presence, access type,
//     value), the request's transaction logs with every reads-from
//     reference resolved to the dictated contents, and the recorded
//     nondeterminism.
//
// Raw request ids, raw predecessor identities, and raw TxPos coordinates
// are deliberately EXCLUDED: they drift across epochs while carrying no
// behavioral content (a logged read behaves identically whichever op wrote
// the value it observes — what matters is the value, which is hashed).
// Everything else a group touches is derived from the hashed material:
// activated sets and opMap locations are built from the handler and
// transaction logs, fnOfActivated inverts ComputeHID over the hashed
// function table, and parentOf is rebuilt by replaying emits.
//
// Logged values (variable-log values, transaction contents, and the
// resolved predecessors and dictated writes among them) enter the key as
// the SHA-256 of their canonical binary encoding (value.AppendBinary), each
// computed once per audit by a parallel pass over this epoch's advice
// (digestLogged). The encoding is taken from the wire span when there is
// one: the advice decoder records the bytes every logged value was decoded
// from (VarLogEntry.Wire, TxOp.Wire), so the pass hashes those bytes
// instead of encoding the value again. Equal bytes decode to equal values,
// so keying on them is sound, and an honest server writes exactly the
// canonical encoding, so a value digests identically with or without a
// span; a non-canonical encoding can only cause a miss. A value with no
// span — a carried predecessor, which is not advice and is digested on
// first use; in-memory advice; or an entry whose value was replaced after
// decode, whose span Wire withholds — is encoded. The table is built after
// preprocess from the advice being audited and dropped with the audit, so
// it cannot go stale, and a fixed-width digest frames itself.
//
// A single tampered byte in any of these inputs changes the key and forces
// cold re-execution — a poisoned entry can never be REACHED by an honest
// key. The converse hazard (an honest key reaching an entry recorded from
// a rejecting run) is closed by publish-after-accept: candidates captured
// during reExec enter the cache only after the WHOLE audit accepts
// (memoPublish at the end of auditFull), so every cached effect set was
// part of an accepting audit. Dangling advice the groups never observe
// (e.g. a forged init-level variable-log entry, or opcounts for a rid
// absent from the trace) cannot hide behind a hit either: the
// post-re-execution sweeps — checkConsumption, the every-handler-executed
// and every-request-responded checks — run over the merged shared state
// identically for replayed and re-executed groups.
//
// # Replay: rebinding intents to the new epoch
//
// Cached intents cannot store raw rids (epoch-local) so ops are encoded as
// (slot, hid, num) against the group's rid slice — hids and op numbers are
// content digests and therefore stable across epochs. Predecessor ops in
// readObs/writeObs intents come in three stable encodings:
//
//   - precFromLog: the access is logged with a predecessor reference;
//     re-execution uses e.Prec verbatim, so replay re-reads it from
//     the NEW epoch's log entry. This is also why predecessor identities
//     can stay out of the key: replay behaves exactly as cold re-execution
//     would for any predecessor whose observable facts match.
//   - precSlot / precInit: the access is unlogged (or lazily logged) and
//     its predecessor came from the dictionary climb, which only ever
//     yields same-request or init-level ops — both epoch-stable.
//
// Any intent that fits none of these encodings makes the group
// uncacheable (memoCapture records no candidate); a defensive bail, not a
// reachable path.
//
// # Determinism
//
// MemoHits/MemoMisses/MemoEvictions must be bit-identical at every worker
// count, so every cache interaction happens on the coordinator in
// canonical tag order: keys are computed and probed sequentially BEFORE
// the fan-out (only the value digests they consume are computed in
// parallel, into indexed slots), and accepted candidates are inserted
// sequentially after the audit accepts (reExecBuffered, memoPublish).
// When a memo cache is
// configured reExec always takes the buffered path (even at Workers=1),
// which the differential tests prove bit-identical to the immediate engine.

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier/memo"
)

// memoHasher streams framed components into SHA-256. Every component is
// either fixed-width (numbers, value digests), length-prefixed, or
// canonically self-delimiting (value.Encode), so distinct input sequences
// cannot collide by framing.
type memoHasher struct {
	h   hash.Hash
	buf []byte
	n8  [8]byte
	d   memoDigest
}

// memoDigest is the SHA-256 of one value's canonical binary encoding.
type memoDigest = [sha256.Size]byte

// memoDigestChunk is how many logged values one fan-out item digests with
// one encode buffer.
const memoDigestChunk = 16

// digestLoggedValue digests a logged value: its wire bytes when it has
// them, otherwise its canonical binary encoding, made in buf (returned for
// reuse).
func digestLoggedValue(buf []byte, v value.V, wire []byte) (memoDigest, []byte) {
	if wire == nil {
		buf = value.AppendBinary(buf[:0], v)
		wire = buf
	}
	return sha256.Sum256(wire), buf
}

func newMemoHasher() *memoHasher { return &memoHasher{h: sha256.New()} }

func (m *memoHasher) reset() { m.h.Reset() }

func (m *memoHasher) tag(t byte) {
	m.n8[0] = t
	m.h.Write(m.n8[:1])
}

func (m *memoHasher) num(n int) {
	binary.LittleEndian.PutUint64(m.n8[:], uint64(n))
	m.h.Write(m.n8[:])
}

func (m *memoHasher) str(s string) {
	m.num(len(s))
	io.WriteString(m.h, s)
}

// val hashes a value through its canonical encoding — the same
// deterministic byte form value digests and comparisons are defined over.
func (m *memoHasher) val(v value.V) {
	m.buf = value.Encode(m.buf[:0], v)
	m.num(len(m.buf))
	m.h.Write(m.buf)
}

// dig hashes a value digest in place of the value's encoding.
func (m *memoHasher) dig(d memoDigest) {
	m.d = d
	m.h.Write(m.d[:])
}

// digest computes one logged value's digest with the hasher's scratch
// buffer.
func (m *memoHasher) digest(v value.V, wire []byte) (d memoDigest) {
	d, m.buf = digestLoggedValue(m.buf, v, wire)
	return d
}

func (m *memoHasher) sum() (k memo.Key) {
	m.h.Sum(k[:0])
	return k
}

// memoVarEntry pairs a variable-log entry with its variable for the
// per-request listing.
type memoVarEntry struct {
	id core.VarID
	e  *advice.VarLogEntry
}

// memoPrep is the per-audit key-derivation state: the audit-level prefix
// digest, per-request views of the advice slices that are keyed per group,
// and the digest of every logged value. Built once per audit, on the
// coordinator, after preprocess; dropped with the audit.
type memoPrep struct {
	v      *Verifier
	h      *memoHasher
	prefix memo.Key
	txs    map[core.RID][]*advice.TxLog
	vlogs  map[core.RID][]memoVarEntry
	nondet map[core.RID][]advice.NondetEntry
	// vdig and tdig map every variable-log entry and transaction op of
	// this epoch's advice to its value's digest (digestLogged); a carried
	// predecessor, which is not advice, is added lazily (varDigest,
	// txDigest).
	vdig map[*advice.VarLogEntry]memoDigest
	tdig map[*advice.TxOp]memoDigest
}

func (v *Verifier) memoPrepare() *memoPrep {
	p := &memoPrep{
		v:      v,
		h:      newMemoHasher(),
		txs:    make(map[core.RID][]*advice.TxLog),
		vlogs:  make(map[core.RID][]memoVarEntry),
		nondet: make(map[core.RID][]advice.NondetEntry),
	}
	var ops []*advice.TxOp
	for i := range v.adv.TxLogs {
		tl := &v.adv.TxLogs[i]
		p.txs[tl.RID] = append(p.txs[tl.RID], tl)
		for j := range tl.Ops {
			ops = append(ops, &tl.Ops[j])
		}
	}
	var logged []*advice.VarLogEntry
	for _, id := range sortedKeys(v.adv.VarLogs) {
		entries := v.adv.VarLogs[id]
		for i := range entries {
			e := &entries[i]
			p.vlogs[e.Op.RID] = append(p.vlogs[e.Op.RID], memoVarEntry{id: id, e: e})
			logged = append(logged, e)
		}
	}
	for _, e := range v.adv.Nondet {
		p.nondet[e.Op.RID] = append(p.nondet[e.Op.RID], e)
	}
	p.digestLogged(logged, ops)

	// Audit-level prefix: everything group-independent a replay observes.
	// The init-level dictionary is hashed entry by entry in append order
	// (deterministic init replay followed by sorted-VarID carry injection),
	// so a changed carry slice or a different init fixpoint changes every
	// group key of the epoch.
	h := p.h
	h.tag('A')
	h.str(v.cfg.App.Name)
	h.str(string(v.cfg.App.RequestEvent))
	fns := sortedKeys(v.cfg.App.Funcs)
	h.num(len(fns))
	for _, fn := range fns {
		h.str(string(fn))
	}
	h.str(string(v.cfg.Mode))
	h.num(int(v.cfg.Isolation))
	ids := sortedKeys(v.vars)
	h.num(len(ids))
	for _, id := range ids {
		vv := v.vars[id]
		h.str(string(id))
		entries := vv.dict[dkey{rid: core.InitRID, hid: core.InitHID}]
		h.num(len(entries))
		for _, en := range entries {
			v.poll()
			h.num(en.num)
			h.val(en.val)
		}
	}
	p.prefix = h.sum()
	return p
}

// digestLogged digests every logged value once: the SHA-256 work (and the
// encoding of any value without wire bytes) fans out over the audit's
// workers in chunks of memoDigestChunk values (one encode buffer each) into
// indexed slots, and the coordinator then indexes the slots by entry. A
// panic in a chunk surfaces here, in chunk order, like any worker-side
// rejection.
func (p *memoPrep) digestLogged(entries []*advice.VarLogEntry, ops []*advice.TxOp) {
	v := p.v
	type logged struct {
		v    value.V
		wire []byte
	}
	vals := make([]logged, 0, len(entries)+len(ops))
	for _, e := range entries {
		vals = append(vals, logged{e.Value, e.Wire()})
	}
	for _, op := range ops {
		vals = append(vals, logged{op.Contents, op.Wire()})
	}
	digs := make([]memoDigest, len(vals))
	chunks := (len(vals) + memoDigestChunk - 1) / memoDigestChunk
	rejs := make([]*core.Reject, chunks)
	fanOut(v.workers(), chunks, func(c int) {
		defer func() {
			if r := recover(); r != nil {
				rejs[c] = asReject(r)
			}
		}()
		v.checkCtx()
		var buf []byte
		for i := c * memoDigestChunk; i < min((c+1)*memoDigestChunk, len(vals)); i++ {
			digs[i], buf = digestLoggedValue(buf, vals[i].v, vals[i].wire)
		}
	})
	for _, rej := range rejs {
		if rej != nil {
			panic(*rej)
		}
	}
	p.vdig = make(map[*advice.VarLogEntry]memoDigest, len(entries))
	for i, e := range entries {
		p.vdig[e] = digs[i]
	}
	p.tdig = make(map[*advice.TxOp]memoDigest, len(ops))
	for i, op := range ops {
		p.tdig[op] = digs[len(entries)+i]
	}
}

// varDigest returns the digest of a variable-log entry's value. Every entry
// of this epoch's advice is in the table; a carried predecessor is digested
// on first use, on the coordinator.
func (p *memoPrep) varDigest(e *advice.VarLogEntry) memoDigest {
	d, ok := p.vdig[e]
	if !ok {
		d = p.h.digest(e.Value, e.Wire())
		p.vdig[e] = d
	}
	return d
}

// txDigest is varDigest for a transaction op's contents.
func (p *memoPrep) txDigest(op *advice.TxOp) memoDigest {
	d, ok := p.tdig[op]
	if !ok {
		d = p.h.digest(op.Contents, op.Wire())
		p.tdig[op] = d
	}
	return d
}

// groupKey digests one tag group's full input closure. Runs on the
// coordinator only (the hasher is shared across groups).
func (p *memoPrep) groupKey(tag string, rids []core.RID) memo.Key {
	v := p.v
	h := p.h
	h.reset()
	h.tag('G')
	h.h.Write(p.prefix[:])
	h.str(tag)
	h.num(len(rids))
	for i, rid := range rids {
		v.poll()
		h.tag('R')
		h.num(i)
		h.val(v.inputs[rid])
		h.val(v.outputs[rid])

		counts := v.adv.OpCounts[rid]
		hids := sortedKeys(counts)
		h.num(len(hids))
		for _, hid := range hids {
			h.str(string(hid))
			h.num(counts[hid])
		}

		at, ok := v.adv.ResponseEmittedBy[rid]
		h.num(boolNum(ok))
		h.str(string(at.HID))
		h.num(at.OpNum)

		hl := v.adv.HandlerLogs[rid]
		h.num(len(hl))
		for j := range hl {
			e := &hl[j]
			h.str(string(e.HID))
			h.num(e.OpNum)
			h.num(int(e.Kind))
			h.str(string(e.Event))
			h.num(len(e.Events))
			for _, ev := range e.Events {
				h.str(string(ev))
			}
			h.str(string(e.Fn))
		}

		vl := p.vlogs[rid]
		h.num(len(vl))
		for _, ve := range vl {
			v.poll()
			p.hashVarEntry(ve)
		}

		tls := p.txs[rid]
		h.num(len(tls))
		for _, tl := range tls {
			h.str(string(tl.TID))
			h.num(len(tl.Ops))
			for j := range tl.Ops {
				v.poll()
				p.hashTxOp(&tl.Ops[j])
			}
		}

		nd := p.nondet[rid]
		h.num(len(nd))
		for _, e := range nd {
			h.str(string(e.Op.HID))
			h.num(e.Op.Num)
			h.val(e.Value)
		}
	}
	return h.sum()
}

// hashVarEntry digests one variable-log entry by its observable behavior.
// A logged read's predecessor is resolved to the facts annotateRead acts
// on — whether the entry exists, its access type, and its value — instead
// of its epoch-local identity; replay re-reads the identity from the new
// log (precFromLog), so any predecessor with equal facts replays
// identically to cold re-execution. A logged write's predecessor is only
// ever used as a write_observer link, which replay also re-reads from the
// new log, so it contributes nothing to the key at all.
func (p *memoPrep) hashVarEntry(ve memoVarEntry) {
	h := p.h
	e := ve.e
	h.tag('V')
	h.str(string(ve.id))
	h.str(string(e.Op.HID))
	h.num(e.Op.Num)
	h.num(int(e.Type))
	h.dig(p.varDigest(e))
	h.num(boolNum(e.HasPrec))
	if e.Type == advice.AccessRead && e.HasPrec {
		pe, ok := p.v.vars[ve.id].log[e.Prec]
		h.num(boolNum(ok))
		if ok {
			h.num(int(pe.Type))
			h.dig(p.varDigest(pe))
		}
	}
}

// hashTxOp digests one transaction-log entry, resolving every reads-from
// reference to the contents re-execution would feed the handler. The raw
// TxPos coordinates are excluded — a GET dictated by a carried prior-epoch
// write or by an in-epoch write behaves identically when the contents
// match. Resolution is safe here because preprocess has already validated
// the logs; a dangling reference hashes as absent.
func (p *memoPrep) hashTxOp(e *advice.TxOp) {
	h := p.h
	h.tag('X')
	h.str(string(e.HID))
	h.num(e.OpNum)
	h.num(int(e.Type))
	h.str(e.Key)
	h.dig(p.txDigest(e))
	if e.ReadFrom == nil {
		h.tag('n')
	} else {
		h.tag('r')
		p.hashResolved(*e.ReadFrom)
	}
	h.num(len(e.ReadSet))
	for _, sr := range e.ReadSet {
		h.str(sr.Key)
		p.hashResolved(sr.ReadFrom)
	}
}

func (p *memoPrep) hashResolved(pos advice.TxPos) {
	h := p.h
	op := p.v.txOpAt(pos)
	h.num(boolNum(op != nil))
	if op != nil {
		h.dig(p.txDigest(op))
	}
}

func boolNum(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- cached effect sets ---

// Predecessor encodings of a cached readObs/writeObs intent (see the file
// comment): re-read from the new epoch's log entry, or rebound to a group
// slot / the init activation.
const (
	precNone uint8 = iota
	precFromLog
	precSlot
	precInit
)

// memoOp is an op identity with the epoch-local rid replaced by the
// group-slot index; hid and op number are content-derived and stable.
type memoOp struct {
	slot int
	hid  core.HID
	num  int
}

func (m memoOp) bind(rids []core.RID) core.Op {
	return core.Op{RID: rids[m.slot], HID: m.hid, Num: m.num}
}

// memoIntent is one normalized intent of a cached effect set.
type memoIntent struct {
	kind     intentKind
	precMode uint8
	varID    core.VarID // "" for intents that touch no variable
	op       memoOp
	prec     memoOp
	val      value.V // effDict
}

// memoEntry is one cached effect set: the normalized intent stream of a
// group whose audit accepted.
type memoEntry struct {
	slots   int
	intents []memoIntent
	bytes   int
}

// memoCandidate is a captured entry awaiting publish-after-accept.
type memoCandidate struct {
	key memo.Key
	ent *memoEntry
}

// memoIntentBytes is the accounted per-intent overhead (struct + map/list
// bookkeeping the replay will cost); value payloads are accounted at their
// canonical encoded size on top.
const memoIntentBytes = 96

// memoProbe keys every group and probes the cache, in canonical tag order
// on the coordinator (the MemoHits/MemoMisses counters and the LRU touch
// order depend on it). Without a cache it returns nil keys and no hits.
func (v *Verifier) memoProbe(order []string, groups map[string][]core.RID) ([]memo.Key, []*memoEntry) {
	hits := make([]*memoEntry, len(order))
	if v.cfg.Memo == nil {
		return nil, hits
	}
	prep := v.memoPrepare()
	keys := make([]memo.Key, len(order))
	for i, tag := range order {
		keys[i] = prep.groupKey(tag, groups[tag])
		if got, ok := v.cfg.Memo.Probe(keys[i]); ok {
			if ent, isEntry := got.(*memoEntry); isEntry && ent.slots == len(groups[tag]) {
				hits[i] = ent
				v.Stats.MemoHits++
				continue
			}
		}
		v.Stats.MemoMisses++
	}
	return keys, hits
}

// memoCapture normalizes a merged group's intent stream into a cache
// candidate awaiting publish-after-accept. A group whose stream holds an
// intent that fits no stable encoding is left uncached (defensive; see the
// file comment).
func (v *Verifier) memoCapture(key memo.Key, rids []core.RID, eff *groupEffects) {
	slotOf := make(map[core.RID]int, len(rids))
	for i, rid := range rids {
		slotOf[rid] = i
	}
	ent := &memoEntry{slots: len(rids), intents: make([]memoIntent, 0, len(eff.intents))}
	size := memoIntentBytes // entry header
	for i := range eff.intents {
		in := &eff.intents[i]
		mi := memoIntent{kind: in.kind, val: in.val}
		if in.kind != effRerun {
			s, ok := slotOf[in.op.RID]
			if !ok {
				return
			}
			mi.op = memoOp{slot: s, hid: in.op.HID, num: in.op.Num}
		}
		if in.vv != nil {
			mi.varID = in.vv.id
		}
		switch in.kind {
		case effDict:
			size += value.EncodedLen(in.val)
		case effReadObs, effWriteObs:
			if e, logged := in.vv.log[in.op]; logged && e.HasPrec && e.Prec == in.prec {
				mi.precMode = precFromLog
			} else if s, grp := slotOf[in.prec.RID]; grp {
				mi.precMode, mi.prec = precSlot, memoOp{slot: s, hid: in.prec.HID, num: in.prec.Num}
			} else if in.prec.RID == core.InitRID {
				mi.precMode, mi.prec = precInit, memoOp{hid: in.prec.HID, num: in.prec.Num}
			} else {
				return
			}
		}
		size += memoIntentBytes
		ent.intents = append(ent.intents, mi)
	}
	ent.bytes = size
	v.memoPending = append(v.memoPending, memoCandidate{key: key, ent: ent})
}

// memoReplay rebinds a cached effect set to this epoch's group — slot → rid,
// predecessor by its recorded encoding — and hands each intent to apply. It
// runs on the coordinator at the group's canonical merge position, so the
// sequence of shared-state mutations (and the position of any cross-group
// conflict rejection) is exactly what re-executing the group would produce.
// The shape checks reject with InternalFault: under key equality they are
// unreachable (the group size and every logged access are part of the key),
// so tripping one means the cache itself misbehaved — an auditor-side fault,
// not advice forgery.
func (v *Verifier) memoReplay(ent *memoEntry, rids []core.RID) {
	if ent.slots != len(rids) {
		core.RejectCodef(core.RejectInternalFault, "memo entry caches %d slots for a group of %d", ent.slots, len(rids))
	}
	for i := range ent.intents {
		v.poll()
		m := &ent.intents[i]
		in := intent{kind: m.kind, val: m.val}
		if m.kind != effRerun {
			in.op = m.op.bind(rids)
		}
		if m.varID != "" {
			if in.vv = v.vars[m.varID]; in.vv == nil {
				core.RejectCodef(core.RejectInternalFault, "memo replay references unknown variable %s", m.varID)
			}
		}
		switch m.precMode {
		case precFromLog:
			e, ok := in.vv.log[in.op]
			if !ok || !e.HasPrec {
				core.RejectCodef(core.RejectInternalFault, "memo replay: logged access %v lost its predecessor", in.op)
			}
			in.prec = e.Prec
		case precSlot:
			in.prec = m.prec.bind(rids)
		case precInit:
			in.prec = core.Op{RID: core.InitRID, HID: m.prec.hid, Num: m.prec.num}
		}
		v.apply(&in)
	}
}

// memoPublish inserts the accepted audit's captured candidates, in
// canonical order, on the coordinator — the publish-after-accept boundary.
// Oversized entries (Limits.MaxMemoEntryBytes, defaulting to an eighth of
// the cache budget) are skipped rather than allowed to churn the LRU.
func (v *Verifier) memoPublish() {
	if v.cfg.Memo == nil || len(v.memoPending) == 0 {
		return
	}
	maxEntry := v.cfg.Limits.MaxMemoEntryBytes
	if maxEntry <= 0 {
		if mb := v.cfg.Memo.MaxBytes(); mb > 0 {
			maxEntry = mb / 8
		}
	}
	for _, c := range v.memoPending {
		if maxEntry > 0 && c.ent.bytes > maxEntry {
			continue
		}
		v.Stats.MemoEvictions += v.cfg.Memo.Insert(c.key, c.ent, c.ent.bytes)
	}
	v.memoPending = nil
}
