package verifier

import "karousos.dev/karousos/internal/core"

// Dense identifiers. Outside the verifier an operation is a core.Op: two
// strings (a request id and a 64-character handler id) and an op number.
// Inside one audit it is an op: the same three coordinates with the strings
// interned into an epoch-local table, so the per-operation bookkeeping of
// re-execution — logs, dictionaries, observer chains, consumption marks —
// hashes and compares integers (paper §5 names handlers by small ids for
// the same reason). Strings survive only at the edges: the application API,
// advice decode, memo cache entries, and reject messages, which render an
// op back through the table so every message is byte-identical to one
// formatted from the core.Op.
//
// Interning rule. The coordinator interns while it preprocesses: the
// initialization activation first (so initR and initH are 0), then the
// trace's rids, every logged variable access and its predecessor, the
// recorded nondeterminism, and every advised handler. From the end of
// preprocess until the buffered merge the table is frozen, so group workers
// only look ids up; every op a group issues names an advised (rid, hid),
// which is already in the table. The coordinator may intern again once no
// worker runs (memo replay, postprocess).

// op names one operation inside the audit.
type op struct {
	r, h uint32 // interned rid and hid
	n    int
}

// The initialization activation I is interned first.
const (
	initR uint32 = 0 // core.InitRID
	initH uint32 = 0 // core.InitHID
)

// dkey names one handler activation (rid, hid): the version dictionary's
// key and the layout's slot key.
type dkey struct{ r, h uint32 }

func (o op) act() dkey { return dkey{r: o.r, h: o.h} }

// idTable is the epoch-local intern table of rids and hids.
type idTable struct {
	rids  []core.RID
	ridOf map[core.RID]uint32
	hids  []core.HID
	hidOf map[core.HID]uint32
}

func newIDTable() *idTable {
	t := &idTable{ridOf: make(map[core.RID]uint32), hidOf: make(map[core.HID]uint32)}
	t.rid(core.InitRID)
	t.hid(core.InitHID)
	return t
}

// rid interns r. Coordinator only (see the interning rule above).
func (t *idTable) rid(r core.RID) uint32 {
	if id, ok := t.ridOf[r]; ok {
		return id
	}
	id := uint32(len(t.rids))
	t.ridOf[r] = id
	t.rids = append(t.rids, r)
	return id
}

// hid interns h. Coordinator only.
func (t *idTable) hid(h core.HID) uint32 {
	if id, ok := t.hidOf[h]; ok {
		return id
	}
	id := uint32(len(t.hids))
	t.hidOf[h] = id
	t.hids = append(t.hids, h)
	return id
}

// intern interns both strings of o. Coordinator only.
func (t *idTable) intern(o core.Op) op {
	return op{r: t.rid(o.RID), h: t.hid(o.HID), n: o.Num}
}

// lookup resolves o without interning; ok is false when either string was
// never interned. Safe from any goroutine while the table is frozen.
func (t *idTable) lookup(o core.Op) (op, bool) {
	r, ok := t.ridOf[o.RID]
	if !ok {
		return op{}, false
	}
	h, ok := t.hidOf[o.HID]
	if !ok {
		return op{}, false
	}
	return op{r: r, h: h, n: o.Num}, true
}

// core renders o back into the core.Op it names.
func (t *idTable) core(o op) core.Op {
	return core.Op{RID: t.rids[o.r], HID: t.hids[o.h], Num: o.n}
}

// less orders ops by rid, then hid, then number, comparing the strings:
// the order in which the audit names the first of several bad entries. Ids
// are assigned in interning order, not string order, so it cannot compare
// them.
func (t *idTable) less(a, b op) bool {
	if a.r != b.r {
		return t.rids[a.r] < t.rids[b.r]
	}
	if a.h != b.h {
		return t.hids[a.h] < t.hids[b.h]
	}
	return a.n < b.n
}
