// Package appkit holds small dynamic-value accessors shared by the sample
// applications. Application handler code computes over value.V (the
// JSON-like domain) inside mv.Apply closures; these helpers keep that code
// readable while staying nil-safe, since request payloads are external input.
package appkit

import (
	"fmt"
	"hash/fnv"
	"maps"

	"karousos.dev/karousos/internal/value"
)

// Work simulates deterministic CPU-bound application work — request routing,
// template compilation, markup rendering — and returns a digest of the
// result. When its operands are equal across a re-execution group the
// surrounding mv.Apply collapses and the work runs once for the whole group;
// this is exactly the computation that SIMD-on-demand deduplicates (§2.3).
func Work(seed value.V, iters int) string {
	h := fnv.New64a()
	h.Write(value.Encode(nil, seed))
	x := h.Sum64()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += 0x9e3779b97f4a7c15
	}
	return fmt.Sprintf("%016x", x)
}

// Field returns m[k] if v is a map, else nil.
func Field(v value.V, k string) value.V {
	if m, ok := v.(map[string]value.V); ok {
		return m[k]
	}
	return nil
}

// Str returns v as a string, or "" if it is not one.
func Str(v value.V) string {
	s, _ := v.(string)
	return s
}

// Num returns v as a float64, or 0 if it is not one.
func Num(v value.V) float64 {
	n, _ := v.(float64)
	return n
}

// Bool returns v as a bool, or false if it is not one.
func Bool(v value.V) bool {
	b, _ := v.(bool)
	return b
}

// AsMap returns v as a map, or an empty map if it is not one.
func AsMap(v value.V) map[string]value.V {
	if m, ok := v.(map[string]value.V); ok {
		return m
	}
	return map[string]value.V{}
}

// AsList returns v as a list, or nil if it is not one.
func AsList(v value.V) []value.V {
	l, _ := v.([]value.V)
	return l
}

// With returns a copy of map v with k set to val; handler code uses it to
// derive a new state from one that may be shared with logs. The copy is
// shallow: values are immutable (package value), so the new map shares every
// other entry with v, and only val is normalized.
func With(v value.V, k string, val value.V) map[string]value.V {
	m := maps.Clone(AsMap(v))
	m[k] = value.Normalize(val)
	return m
}

// Without returns a shallow copy of map v with k removed.
func Without(v value.V, k string) map[string]value.V {
	m := maps.Clone(AsMap(v))
	delete(m, k)
	return m
}

// Append returns a new list holding list v's elements followed by elems,
// normalized. It never writes into v's backing array, which other values may
// share: two lists appended to one list stay independent even when that list
// has spare capacity. Every list extension in handler code goes through it.
func Append(v value.V, elems ...value.V) []value.V {
	l := AsList(v)
	out := make([]value.V, len(l), len(l)+len(elems))
	copy(out, l)
	for _, e := range elems {
		out = append(out, value.Normalize(e))
	}
	return out
}
