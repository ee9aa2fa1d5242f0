package verifier

import (
	"cmp"
	"sort"

	"karousos.dev/karousos/internal/advice"
)

// Deterministic map sweeps. The verdict — including *which* forgery a
// rejection names and the node order of the execution graph, hence which
// cycle FindCycle reports — must be a pure function of (trace, advice), so
// every verdict-affecting iteration over a map goes through these helpers
// instead of Go's randomized range order (detlint enforces this).

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// sortedKeysFunc returns m's keys ordered by less, for struct keys.
func sortedKeysFunc[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

func txPosLess(a, b advice.TxPos) bool {
	if a.RID != b.RID {
		return a.RID < b.RID
	}
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	return a.Index < b.Index
}

func txRefLess(a, b txRef) bool {
	if a.rid != b.rid {
		return a.rid < b.rid
	}
	return a.tid < b.tid
}

func regEntryLess(a, b regEntry) bool {
	if a.event != b.event {
		return a.event < b.event
	}
	return a.fn < b.fn
}
