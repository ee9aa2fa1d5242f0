package verifier

import (
	"fmt"
	"testing"

	"karousos.dev/karousos/internal/value"
)

// TestDigestValueStructural: a logged value's memo digest depends on the
// value alone. Equal values digest equally whether they share containers
// or not, through one table or two, and whether a large map's keys were
// sorted afresh or reused from the map before; values that differ in a
// scalar, a key, a shape or a nesting level digest differently.
func TestDigestValueStructural(t *testing.T) {
	board := func(pin string) value.V {
		m := map[string]value.V{}
		for i := 0; i < 12; i++ {
			m[fmt.Sprintf("board-%02d", i)] = fmt.Sprintf("note %d", i)
		}
		m["board-03"] = pin
		return m
	}
	entry := value.Map("day", "mon", "msg", "hi")
	shared := value.List(entry, entry, value.Map("h", value.List(entry)))
	copied := value.Clone(shared)
	distinct := []value.V{
		nil, false, true, float64(0), float64(1), "", "a", "b",
		value.List(), value.Map(), value.List(nil), value.List("a"), value.List(value.List("a")),
		value.Map("a", nil), value.Map("b", nil), value.Map("a", value.List()),
		value.List("a", "b"), value.List("b", "a"), value.Map("k", "ab"), value.Map("ka", "b"),
		shared, board("pinned"), board("other"),
	}
	var g valueDigests
	seen := map[memoDigest]int{}
	for i, v := range distinct {
		d := g.digestValue(v)
		if j, dup := seen[d]; dup {
			t.Errorf("values %d (%s) and %d (%s) digest equally", j, value.String(distinct[j]), i, value.String(v))
		}
		seen[d] = i
		var fresh valueDigests
		if got := fresh.digestValue(value.Clone(v)); got != d {
			t.Errorf("value %d (%s): a copy through a fresh table digests differently", i, value.String(v))
		}
	}
	if g.digestValue(copied) != g.digestValue(shared) {
		t.Error("a value sharing its entries and an unshared copy digest differently")
	}
	// The second board map reuses the first's sorted keys.
	var h valueDigests
	if h.digestValue(board("other")) != g.digestValue(board("other")) || len(h.keys) != 12 {
		t.Error("a map whose sorted keys were reused digests differently")
	}
}
