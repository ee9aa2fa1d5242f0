// Package adya implements the portion of Adya's isolation theory [Adya'99]
// that the Karousos verifier runs over the server's alleged transaction
// history (paper §4.4, Figure 17).
//
// Given a history — the committed transactions, a per-key version (write)
// order, and the set of read-from facts — the package builds the Direct
// Serialization Graph (DSG) with read-dependency (wr), write-dependency (ww)
// and anti-dependency (rw) edges, and tests the phenomena that define each
// isolation level:
//
//   - read uncommitted: no G0 (no cycle of ww edges);
//   - read committed:   no G1c (no cycle of ww+wr edges);
//   - serializability:  no G2 (no cycle of ww+wr+rw edges).
//
// The verification is *provisional* exactly as in the paper: the history
// here is alleged by an untrusted server, so the verifier separately checks
// that the history is consistent with re-execution and the rest of the
// advice (those checks live in the verifier package).
package adya

import (
	"fmt"
	"sort"

	"karousos.dev/karousos/internal/graph"
)

// Level is the isolation level to verify.
type Level uint8

const (
	ReadUncommitted Level = iota
	ReadCommitted
	Serializable
	// SnapshotIsolation is checked through CheckSI, which additionally
	// needs the alleged begin/commit ordering.
	SnapshotIsolation
)

func (l Level) String() string {
	switch l {
	case ReadUncommitted:
		return "read uncommitted"
	case ReadCommitted:
		return "read committed"
	case Serializable:
		return "serializable"
	case SnapshotIsolation:
		return "snapshot isolation"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// TxKey identifies a transaction node of the DSG: the paper indexes
// transactions by (request id, transaction id).
type TxKey struct {
	RID string
	TID string
}

func (t TxKey) String() string { return t.RID + "/" + t.TID }

// Write identifies an installed write: the Pos-th operation of transaction
// Tx (positions are opaque to this package; they only need to be distinct
// per transaction).
type Write struct {
	Tx  TxKey
	Pos int
}

// Read is one read-from fact: transaction By read (at its own position
// ByPos) the version installed by From.
type Read struct {
	From  Write
	By    TxKey
	ByPos int
}

// History is the alleged execution history handed to the isolation test.
type History struct {
	// Committed lists the committed transactions; they are the DSG nodes.
	Committed []TxKey
	// WriteOrderPerKey gives, per key, the total order of installed
	// (committed) versions — Adya's version order.
	WriteOrderPerKey map[string][]Write
	// Reads lists every read-from fact involving a committed reader.
	Reads []Read
}

// sortedWriteKeys returns WriteOrderPerKey's keys in sorted order. Edge
// insertion order decides which cycle FindCycle reports — and so the
// rejection Reason operators see — so the sweep must not follow Go's
// randomized map iteration.
func sortedWriteKeys(h *History) []string {
	keys := make([]string, 0, len(h.WriteOrderPerKey))
	for k := range h.WriteOrderPerKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// txIndex numbers the committed transactions 0..n-1 in History.Committed
// order, so the dependency graphs are graph.Dense over those indexes: roots
// are visited and successors followed in the same order as a graph keyed by
// TxKey in insertion order would, and every reported cycle is the same.
type txIndex struct {
	keys []TxKey
	id   map[TxKey]uint32
}

func indexCommitted(h *History) txIndex {
	x := txIndex{id: make(map[TxKey]uint32, len(h.Committed))}
	for _, t := range h.Committed {
		if _, dup := x.id[t]; !dup {
			x.id[t] = uint32(len(x.keys))
			x.keys = append(x.keys, t)
		}
	}
	return x
}

// newGraph returns a graph whose nodes are exactly the committed
// transactions.
func (x txIndex) newGraph() *graph.Dense {
	d := graph.NewDense(len(x.keys))
	for i := range x.keys {
		d.AddNode(uint32(i))
	}
	return d
}

// pair resolves a dependency a→b to node ids; ok is false for a self edge
// or when either end is not committed.
func (x txIndex) pair(a, b TxKey) (ia, ib uint32, ok bool) {
	ia, okA := x.id[a]
	ib, okB := x.id[b]
	return ia, ib, okA && okB && a != b
}

// readersOf maps each installed version to its committed readers.
func (x txIndex) readersOf(h *History) map[Write][]TxKey {
	m := make(map[Write][]TxKey)
	for _, r := range h.Reads {
		if _, ok := x.id[r.By]; ok {
			m[r.From] = append(m[r.From], r.By)
		}
	}
	return m
}

// DSG builds the direct serialization graph with the edge families required
// by the given level. Node i is the i-th distinct transaction of
// h.Committed; edges never connect a transaction to itself.
func DSG(h *History, level Level) *graph.Dense {
	dg, _ := buildDSG(h, level)
	return dg
}

func buildDSG(h *History, level Level) (*graph.Dense, txIndex) {
	x := indexCommitted(h)
	dg := x.newGraph()
	add := func(a, b TxKey) {
		if ia, ib, ok := x.pair(a, b); ok {
			dg.AddEdge(ia, ib)
		}
	}

	// ww (write-depend) edges: consecutive installed versions of a key.
	for _, key := range sortedWriteKeys(h) {
		order := h.WriteOrderPerKey[key]
		for j := 0; j+1 < len(order); j++ {
			add(order[j].Tx, order[j+1].Tx)
		}
	}

	if level == ReadUncommitted {
		return dg, x
	}

	// wr (read-depend) edges: reader reads a version the writer installed.
	for _, r := range h.Reads {
		add(r.From.Tx, r.By)
	}

	if level == ReadCommitted {
		return dg, x
	}

	// rw (anti-depend) edges: a committed transaction read version v of a
	// key, and another transaction installed the version immediately after
	// v in the version order.
	readersOf := x.readersOf(h)
	for _, key := range sortedWriteKeys(h) {
		order := h.WriteOrderPerKey[key]
		for j := 0; j+1 < len(order); j++ {
			for _, reader := range readersOf[order[j]] {
				add(reader, order[j+1].Tx)
			}
		}
	}
	return dg, x
}

// Check verifies that the history satisfies the isolation level: it builds
// the level's DSG and reports the phenomenon (a cycle) if one exists.
func Check(h *History, level Level) error {
	dg, x := buildDSG(h, level)
	if ids := dg.FindCycle(); ids != nil {
		cycle := make([]TxKey, len(ids))
		for i, id := range ids {
			cycle[i] = x.keys[id]
		}
		return &ViolationError{Level: level, Cycle: cycle}
	}
	return nil
}

// ViolationError reports an isolation violation: a cycle of dependency edges
// in the DSG (phenomenon G0, G1c, or G2 depending on the level checked).
type ViolationError struct {
	Level Level
	Cycle []TxKey
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("adya: %s violated: dependency cycle %v", e.Level, e.Cycle)
}

// Snapshot isolation support (an extension past the paper's implementation;
// its §1 lists snapshot isolation as future work). Adya defines PL-SI via
// phenomena over the history's begin/commit ordering:
//
//	G-SIa (interference): every read- or write-dependency edge Ti→Tj must
//	have Ti's commit before Tj's begin — Tj's snapshot either saw all of
//	Ti or none of it.
//	G-SIb (missed effects): no cycle with exactly one anti-dependency
//	edge — two concurrent transactions cannot both miss each other's
//	writes and still be ordered by a dependency path.
//
// Write skew (a cycle with TWO anti-dependency edges) is permitted, exactly
// as real SI permits it.

// TxTimes gives each committed transaction's position in the alleged
// begin/commit order: smaller means earlier. Both positions are indexes into
// one global event sequence.
type TxTimes struct {
	Begin, Commit int
}

// CheckSI verifies the history against snapshot isolation given the alleged
// begin/commit ordering of every committed transaction.
func CheckSI(h *History, times map[TxKey]TxTimes) error {
	// SI forbids the G1 phenomena as well.
	if err := Check(h, ReadCommitted); err != nil {
		return err
	}
	x := indexCommitted(h)
	for _, t := range x.keys {
		tt, ok := times[t]
		if !ok {
			return fmt.Errorf("adya: committed transaction %v has no begin/commit times", t)
		}
		if tt.Begin >= tt.Commit {
			return fmt.Errorf("adya: transaction %v commits at %d before beginning at %d", t, tt.Commit, tt.Begin)
		}
	}

	// Dependency (ww+wr) edges, for G-SIa and the G-SIb reachability test.
	dep := x.newGraph()
	checkDep := func(a, b TxKey) error {
		ia, ib, ok := x.pair(a, b)
		if !ok {
			return nil
		}
		if times[a].Commit >= times[b].Begin {
			return fmt.Errorf("adya: snapshot isolation violated (G-SIa): %v depends on %v, which committed at %d, after %v began at %d",
				b, a, times[a].Commit, b, times[b].Begin)
		}
		dep.AddEdge(ia, ib)
		return nil
	}
	for _, key := range sortedWriteKeys(h) {
		order := h.WriteOrderPerKey[key]
		for j := 0; j+1 < len(order); j++ {
			if err := checkDep(order[j].Tx, order[j+1].Tx); err != nil {
				return err
			}
		}
	}
	for _, r := range h.Reads {
		if err := checkDep(r.From.Tx, r.By); err != nil {
			return err
		}
	}

	// G-SIb: an anti-dependency edge a→b closing a dependency-only path
	// b→…→a forms a cycle with exactly one anti-dependency edge.
	readersOf := x.readersOf(h)
	for _, key := range sortedWriteKeys(h) {
		order := h.WriteOrderPerKey[key]
		for j := 0; j+1 < len(order); j++ {
			next := order[j+1].Tx
			for _, reader := range readersOf[order[j]] {
				ir, in, ok := x.pair(reader, next)
				if ok && dep.Reachable(in, ir) {
					return fmt.Errorf("adya: snapshot isolation violated (G-SIb): anti-dependency %v→%v closes a dependency cycle", reader, next)
				}
			}
		}
	}
	return nil
}
