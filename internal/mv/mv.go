// Package mv implements multivalues, the datatype behind SIMD-on-demand
// re-execution (paper §2.3, §4.1, §5).
//
// A multivalue carries one logical value per request in a re-execution group.
// When every entry is equal the multivalue is stored collapsed — a single
// value plus a width — and any computation over it executes once for the
// whole group. When entries differ, the multivalue expands into a vector and
// computation runs per entry. The Karousos verifier re-executes an entire
// control-flow group through multivalues; the server runs the same
// application code through width-1 multivalues, so the program text is
// identical in both roles (the paper achieves the same sharing with its
// transpiler).
//
// Concurrency: immutability is also what makes the parallel audit engine
// safe. Worker goroutines replaying different tag groups share MVs freely
// (frozen @init state, advice-supplied values) because no operation mutates
// a constructed MV; the only shared mutable state in a parallel audit lives
// in the verifier's effect buffers, which are worker-private until merged
// (DESIGN.md §13).
package mv

import (
	"fmt"

	"karousos.dev/karousos/internal/value"
)

// MV is a multivalue of fixed width. The zero value is invalid; construct
// with Scalar or FromVals. MVs are immutable once constructed: all operations
// return new MVs, which is what lets the verifier keep MVs inside variable
// dictionaries and logs without defensive copying.
type MV struct {
	width     int
	collapsed bool
	single    value.V // valid when collapsed
	vals      []value.V
}

// Scalar returns a collapsed multivalue of the given width whose every entry
// is v. The entry must already be canonical (value.Normalize form): the
// runtimes construct multivalues on every operation, and normalizing big maps
// there would dominate audit time. Application helpers (value.Map/List,
// appkit) produce canonical values; a stray raw int fails loudly in
// value.Equal during replay.
func Scalar(v value.V, width int) *MV {
	if width <= 0 {
		panic("mv: non-positive width")
	}
	return &MV{width: width, collapsed: true, single: v}
}

// FromVals builds a multivalue from one entry per group member, collapsing it
// if all entries are equal. Entries must already be canonical; see Scalar.
func FromVals(vals []value.V) *MV {
	if len(vals) == 0 {
		panic("mv: empty value vector")
	}
	allEq := true
	for i := 1; i < len(vals); i++ {
		if !value.Equal(vals[0], vals[i]) {
			allEq = false
			break
		}
	}
	if allEq {
		return &MV{width: len(vals), collapsed: true, single: vals[0]}
	}
	return &MV{width: len(vals), vals: vals}
}

// Width returns the number of group members this multivalue spans.
func (m *MV) Width() int { return m.width }

// Collapsed reports whether all entries are equal and stored once.
func (m *MV) Collapsed() bool { return m.collapsed }

// At returns the entry for group member i.
func (m *MV) At(i int) value.V {
	if i < 0 || i >= m.width {
		panic(fmt.Sprintf("mv: index %d out of range (width %d)", i, m.width))
	}
	if m.collapsed {
		return m.single
	}
	return m.vals[i]
}

// All returns a fresh slice with one entry per group member.
func (m *MV) All() []value.V {
	out := make([]value.V, m.width)
	for i := range out {
		out[i] = m.At(i)
	}
	return out
}

// Single returns the collapsed value and true iff the multivalue is
// collapsed. Group-wide control decisions (branches, emitted event names)
// must go through Single: a false return means the group diverges and the
// verifier rejects.
func (m *MV) Single() (value.V, bool) {
	if m.collapsed {
		return m.single, true
	}
	return nil, false
}

// Bool interprets a collapsed multivalue as a branch condition. The second
// result is false if the multivalue is not collapsed or not boolean.
func (m *MV) Bool() (bool, bool) {
	v, ok := m.Single()
	if !ok {
		return false, false
	}
	b, ok := v.(bool)
	return b, ok
}

// Equal reports whether two multivalues have the same width and equal entries
// position by position.
func Equal(a, b *MV) bool {
	if a.width != b.width {
		return false
	}
	if a.collapsed && b.collapsed {
		return value.Equal(a.single, b.single)
	}
	for i := 0; i < a.width; i++ {
		if !value.Equal(a.At(i), b.At(i)) {
			return false
		}
	}
	return true
}

// Apply is SIMD-on-demand computation: it applies f position-wise across the
// arguments. If every argument is collapsed, f runs exactly once and the
// result is collapsed — this single-execution path is where batched
// re-execution gets its speedup. Otherwise f runs once per group member and
// the result re-collapses if the outputs happen to agree.
//
// f must be deterministic and must not capture mutable state; it models a
// pure fragment of application code between special operations.
func Apply(f func(args []value.V) value.V, ms ...*MV) *MV {
	if len(ms) == 0 {
		panic("mv: Apply with no arguments")
	}
	width := ms[0].width
	allCollapsed := true
	for _, m := range ms {
		if m.width != width {
			panic(fmt.Sprintf("mv: width mismatch %d vs %d", m.width, width))
		}
		if !m.collapsed {
			allCollapsed = false
		}
	}
	args := make([]value.V, len(ms))
	if allCollapsed {
		for j, m := range ms {
			args[j] = m.single
		}
		return Scalar(f(args), width)
	}
	out := make([]value.V, width)
	for i := 0; i < width; i++ {
		for j, m := range ms {
			args[j] = m.At(i)
		}
		out[i] = f(args)
	}
	return FromVals(out)
}

// Select projects a multivalue onto a subset of its positions, preserving
// collapse when possible. The verifier uses it when a group's emit payload
// must be narrowed (it never is in valid advice, but the helper keeps the
// invariant handling in one place).
func (m *MV) Select(idx []int) *MV {
	if m.collapsed {
		return &MV{width: len(idx), collapsed: true, single: m.single}
	}
	out := make([]value.V, len(idx))
	for i, j := range idx {
		out[i] = m.At(j)
	}
	return FromVals(out)
}

// String renders the multivalue for diagnostics.
func (m *MV) String() string {
	if m.collapsed {
		return fmt.Sprintf("mv(%d)⟨%s⟩", m.width, value.String(m.single))
	}
	s := fmt.Sprintf("mv(%d)[", m.width)
	for i, v := range m.vals {
		if i > 0 {
			s += ", "
		}
		s += value.String(v)
	}
	return s + "]"
}
