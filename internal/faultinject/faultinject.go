// Package faultinject is a catalogue of deterministic, seedable fault
// operators for hardening the auditor against adversarial advice. The
// attack tests forge specific lies; the fuzz tests mutate structures at
// random; this package sits between the two: each operator models one
// *class* of corruption an adversarial (or merely broken) server could ship
// — truncated uploads, flipped bits, spliced blobs, inflated length fields,
// inflated opcounts, skewed log indexes, cyclic precedence chains,
// duplicated and dropped log entries, contradictory write orders — and
// applies it reproducibly from a seed. The invariant every operator is used
// to enforce: the auditor must answer with a *coded verdict* (accept, or a
// core.Reject carrying a RejectCode), never a panic, a stall, or an
// allocation blow-up.
//
// Operators come in two kinds. Byte operators corrupt the serialized wire
// format before decoding and exercise the codec's untrusted-input handling.
// Semantic operators decode the advice, corrupt one section structurally,
// and re-encode; they exercise the verifier proper. A note on "handler-tree
// cycles": hids are digests of their parent hids, so a literal cycle in the
// activation tree cannot be forged by advice — the advice-reachable
// projection of that attack is a cyclic write-precedence chain in the
// variable logs, which cycle-write-chain injects.
//
// Specs of the form "op:seed" (e.g. "truncate:7") drive the catalogue from
// the CLI and from tests.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/fault"
)

// Kind says what representation an operator corrupts.
type Kind uint8

const (
	// KindBytes operators corrupt the serialized wire bytes.
	KindBytes Kind = iota
	// KindSemantic operators corrupt the decoded advice structures.
	KindSemantic
)

func (k Kind) String() string {
	if k == KindBytes {
		return "bytes"
	}
	return "semantic"
}

// Op is one fault operator. Exactly one of bytes/semantic is set,
// matching Kind.
type Op struct {
	Name string
	Kind Kind
	Desc string

	bytes    func(r *rand.Rand, wire []byte) []byte
	semantic func(r *rand.Rand, a *advice.Advice) bool
}

// Mutate applies a semantic operator to decoded advice in place; it reports
// false when the operator is byte-level or found no site to corrupt (e.g.
// no transaction logs). Tests that already hold decoded advice use this
// directly; everything else goes through Apply.
func (op Op) Mutate(r *rand.Rand, a *advice.Advice) bool {
	if op.semantic == nil {
		return false
	}
	return op.semantic(r, a)
}

// Apply runs the operator against wire-format advice with a deterministic
// seed and returns the corrupted wire bytes. Semantic operators decode,
// corrupt, and re-encode; they fail if the input does not decode or offers
// no site for the corruption. Byte operators never fail.
func (op Op) Apply(seed int64, wire []byte) ([]byte, error) {
	r := rand.New(rand.NewSource(seed))
	if op.Kind == KindBytes {
		out := make([]byte, len(wire))
		copy(out, wire)
		return op.bytes(r, out), nil
	}
	a, err := advice.UnmarshalBinary(wire)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s needs decodable advice: %w", op.Name, err)
	}
	if !op.semantic(r, a) {
		return nil, fmt.Errorf("faultinject: %s found no applicable site in this advice", op.Name)
	}
	return a.MarshalBinary(), nil
}

// ParseSpec resolves an "op" or "op:seed" spec (seed defaults to 0) against
// the catalogue. The grammar is the fault kernel's; an advice mutation is a
// single edit with no fire schedule, so a times field is refused.
func ParseSpec(spec string) (Op, int64, error) {
	name, arm, err := fault.ParseSpec(spec)
	if err != nil {
		return Op{}, 0, err
	}
	op, ok := Lookup(name)
	if !ok {
		return Op{}, 0, fmt.Errorf("faultinject: unknown operator %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if arm.Times != 0 {
		return Op{}, 0, fmt.Errorf("faultinject: bad spec %q: want op[:seed]", spec)
	}
	return op, arm.Seed, nil
}

// Lookup finds an operator by name.
func Lookup(name string) (Op, bool) {
	for _, op := range Catalogue() {
		if op.Name == name {
			return op, true
		}
	}
	return Op{}, false
}

// Names lists the catalogue's operator names, sorted.
func Names() []string {
	ops := Catalogue()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	sort.Strings(names)
	return names
}

// Catalogue returns every fault operator.
func Catalogue() []Op {
	return []Op{
		{
			Name: "truncate", Kind: KindBytes,
			Desc:  "cut the wire blob at a random offset (interrupted upload)",
			bytes: truncateBytes,
		},
		{
			Name: "bit-flip", Kind: KindBytes,
			Desc:  "flip 1-8 random bits (storage or transport corruption)",
			bytes: bitFlip,
		},
		{
			Name: "splice", Kind: KindBytes,
			Desc:  "overwrite a random span with bytes copied from elsewhere in the blob",
			bytes: splice,
		},
		{
			Name: "length-inflate", Kind: KindBytes,
			Desc:  "overwrite a random offset with a near-maximal uvarint so some declared length claims ~2^62 elements",
			bytes: lengthInflate,
		},
		{
			Name: "opcount-inflate", Kind: KindSemantic,
			Desc:     "declare a handler issued 2^30 operations (allocation/time amplification)",
			semantic: opcountInflate,
		},
		{
			Name: "index-skew", Kind: KindSemantic,
			Desc:     "shift a transaction-log position index so a read cites the wrong write",
			semantic: indexSkew,
		},
		{
			Name: "cycle-write-chain", Kind: KindSemantic,
			Desc:     "make variable-log write precedences cyclic (probes chain-walk termination)",
			semantic: cycleWriteChain,
		},
		{
			Name: "cycle-write-order", Kind: KindSemantic,
			Desc:     "swap two installed writes of one key in the global write order",
			semantic: cycleWriteOrder,
		},
		{
			Name: "dup-log-entry", Kind: KindSemantic,
			Desc:     "duplicate one handler-log or variable-log entry",
			semantic: dupLogEntry,
		},
		{
			Name: "drop-log-entry", Kind: KindSemantic,
			Desc:     "drop one handler-log or variable-log entry",
			semantic: dropLogEntry,
		},
	}
}

// ---- byte operators ----

func truncateBytes(r *rand.Rand, wire []byte) []byte {
	if len(wire) == 0 {
		return wire
	}
	return wire[:r.Intn(len(wire))]
}

func bitFlip(r *rand.Rand, wire []byte) []byte {
	if len(wire) == 0 {
		return wire
	}
	for n := 1 + r.Intn(8); n > 0; n-- {
		i := r.Intn(len(wire))
		wire[i] ^= 1 << uint(r.Intn(8))
	}
	return wire
}

func splice(r *rand.Rand, wire []byte) []byte {
	if len(wire) < 2 {
		return wire
	}
	n := 1 + r.Intn(len(wire)/2+1)
	src := r.Intn(len(wire) - n + 1)
	dst := r.Intn(len(wire) - n + 1)
	copy(wire[dst:dst+n], wire[src:src+n])
	return wire
}

func lengthInflate(r *rand.Rand, wire []byte) []byte {
	// A uvarint of nine 0xFF continuation bytes and a small terminator
	// decodes to ~2^62; dropped at an arbitrary offset it lands on some
	// length field often enough, and on a string or value otherwise —
	// both must be survivable.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F}
	if len(wire) == 0 {
		return huge
	}
	i := r.Intn(len(wire))
	out := append(wire[:i:i], huge...)
	if i+len(huge) < len(wire) {
		out = append(out, wire[i+len(huge):]...)
	}
	return out
}

// ---- semantic operators ----

func pickRID(r *rand.Rand, m map[core.RID]map[core.HID]int) (core.RID, bool) {
	rids := make([]string, 0, len(m))
	for rid := range m {
		rids = append(rids, string(rid))
	}
	if len(rids) == 0 {
		return "", false
	}
	sort.Strings(rids)
	return core.RID(rids[r.Intn(len(rids))]), true
}

func opcountInflate(r *rand.Rand, a *advice.Advice) bool {
	rid, ok := pickRID(r, a.OpCounts)
	if !ok {
		return false
	}
	hids := make([]string, 0, len(a.OpCounts[rid]))
	for hid := range a.OpCounts[rid] {
		hids = append(hids, string(hid))
	}
	if len(hids) == 0 {
		return false
	}
	sort.Strings(hids)
	a.OpCounts[rid][core.HID(hids[r.Intn(len(hids))])] = 1 << 30
	return true
}

func indexSkew(r *rand.Rand, a *advice.Advice) bool {
	skew := func(i int) int {
		d := 1 + r.Intn(3)
		if r.Intn(2) == 0 && i > d {
			return i - d
		}
		return i + d
	}
	// Prefer a GET's read-from position; fall back to the write order.
	for i := range a.TxLogs {
		for j := range a.TxLogs[i].Ops {
			if rf := a.TxLogs[i].Ops[j].ReadFrom; rf != nil {
				rf.Index = skew(rf.Index)
				return true
			}
		}
	}
	if len(a.WriteOrder) > 0 {
		i := r.Intn(len(a.WriteOrder))
		a.WriteOrder[i].Index = skew(a.WriteOrder[i].Index)
		return true
	}
	return false
}

// cycleWriteChain forges cyclic write-precedence pointers in a variable
// log. Each write has at most one incoming precedence pointer (a duplicate
// rejects as a double overwrite), so any forged cycle is necessarily
// detached from the initializer chain — what this operator probes is that
// the verifier's chain walk terminates and stays coded on such advice, not
// that it detects the cycle: a detached cycle never influences replay
// output, so accepting it is sound.
func cycleWriteChain(r *rand.Rand, a *advice.Advice) bool {
	ids := make([]string, 0, len(a.VarLogs))
	for id := range a.VarLogs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, off := range r.Perm(len(ids)) {
		id := core.VarID(ids[off])
		var writes []int
		for i, e := range a.VarLogs[id] {
			if e.Type == advice.AccessWrite {
				writes = append(writes, i)
			}
		}
		if len(writes) == 0 {
			continue
		}
		if len(writes) == 1 {
			// Self-loop: the write claims to overwrite itself.
			i := writes[0]
			a.VarLogs[id][i].HasPrec = true
			a.VarLogs[id][i].Prec = a.VarLogs[id][i].Op
			return true
		}
		// Two-cycle: each of two writes claims to overwrite the other.
		i, j := writes[0], writes[1]
		a.VarLogs[id][i].HasPrec = true
		a.VarLogs[id][i].Prec = a.VarLogs[id][j].Op
		a.VarLogs[id][j].HasPrec = true
		a.VarLogs[id][j].Prec = a.VarLogs[id][i].Op
		return true
	}
	return false
}

// cycleWriteOrder swaps two installed writes of the same key in the global
// write order, so the advised order of that key's versions contradicts the
// transaction logs' read-from claims. Swapping writes of different keys
// would be semantically idle (the order between independent writes is not
// observable), so the operator requires a same-key pair.
func cycleWriteOrder(r *rand.Rand, a *advice.Advice) bool {
	if len(a.WriteOrder) < 2 {
		return false
	}
	keyOf := make(map[advice.TxPos]string)
	for i := range a.TxLogs {
		tl := &a.TxLogs[i]
		for j := range tl.Ops {
			if tl.Ops[j].Type == core.TxPut {
				keyOf[advice.TxPos{RID: tl.RID, TID: tl.TID, Index: j + 1}] = tl.Ops[j].Key
			}
		}
	}
	byKey := make(map[string][]int)
	for i, p := range a.WriteOrder {
		if k, ok := keyOf[p]; ok {
			byKey[k] = append(byKey[k], i)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k, idx := range byKey {
		if len(idx) >= 2 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false
	}
	sort.Strings(keys)
	idx := byKey[keys[r.Intn(len(keys))]]
	i := r.Intn(len(idx) - 1)
	j := i + 1 + r.Intn(len(idx)-i-1)
	a.WriteOrder[idx[i]], a.WriteOrder[idx[j]] = a.WriteOrder[idx[j]], a.WriteOrder[idx[i]]
	return true
}

func dupLogEntry(r *rand.Rand, a *advice.Advice) bool {
	if rid, ok := pickRID(r, a.OpCounts); ok && len(a.HandlerLogs[rid]) > 0 {
		log := a.HandlerLogs[rid]
		a.HandlerLogs[rid] = append(log, log[r.Intn(len(log))])
		return true
	}
	ids := make([]string, 0, len(a.VarLogs))
	for id := range a.VarLogs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, off := range r.Perm(len(ids)) {
		id := core.VarID(ids[off])
		if len(a.VarLogs[id]) == 0 {
			continue
		}
		entries := a.VarLogs[id]
		a.VarLogs[id] = append(entries, entries[r.Intn(len(entries))])
		return true
	}
	return false
}

func dropLogEntry(r *rand.Rand, a *advice.Advice) bool {
	if rid, ok := pickRID(r, a.OpCounts); ok && len(a.HandlerLogs[rid]) > 0 {
		log := a.HandlerLogs[rid]
		i := r.Intn(len(log))
		a.HandlerLogs[rid] = append(log[:i:i], log[i+1:]...)
		return true
	}
	ids := make([]string, 0, len(a.VarLogs))
	for id := range a.VarLogs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, off := range r.Perm(len(ids)) {
		id := core.VarID(ids[off])
		if len(a.VarLogs[id]) == 0 {
			continue
		}
		entries := a.VarLogs[id]
		i := r.Intn(len(entries))
		a.VarLogs[id] = append(entries[:i:i], entries[i+1:]...)
		return true
	}
	return false
}
