package mv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"karousos.dev/karousos/internal/value"
)

func TestScalarCollapsed(t *testing.T) {
	m := Scalar("x", 5)
	if !m.Collapsed() || m.Width() != 5 {
		t.Fatalf("Scalar: collapsed=%v width=%d", m.Collapsed(), m.Width())
	}
	for i := 0; i < 5; i++ {
		if m.At(i) != "x" {
			t.Errorf("At(%d) = %v", i, m.At(i))
		}
	}
	if v, ok := m.Single(); !ok || v != "x" {
		t.Errorf("Single = %v, %v", v, ok)
	}
}

func TestScalarZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scalar with width 0 should panic")
		}
	}()
	Scalar("x", 0)
}

func TestFromValsCollapsesEqual(t *testing.T) {
	m := FromVals([]value.V{value.Map("a", 1), value.Map("a", 1), value.Map("a", 1)})
	if !m.Collapsed() {
		t.Error("equal entries should collapse")
	}
	m2 := FromVals([]value.V{"a", "a", "b"})
	if m2.Collapsed() {
		t.Error("unequal entries must not collapse")
	}
	if m2.At(2) != "b" {
		t.Errorf("At(2) = %v", m2.At(2))
	}
	if _, ok := m2.Single(); ok {
		t.Error("Single on expanded MV should report !ok")
	}
}

func TestFromValsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromVals(nil) should panic")
		}
	}()
	FromVals(nil)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range should panic")
		}
	}()
	Scalar("x", 2).At(2)
}

func TestAll(t *testing.T) {
	m := FromVals([]value.V{float64(1), float64(2)})
	all := m.All()
	if len(all) != 2 || all[0] != float64(1) || all[1] != float64(2) {
		t.Errorf("All = %v", all)
	}
	// All returns a fresh slice: mutating it must not affect the MV.
	all[0] = float64(9)
	if m.At(0) != float64(1) {
		t.Error("All exposed internal storage")
	}
}

func TestBool(t *testing.T) {
	if b, ok := Scalar(true, 3).Bool(); !ok || !b {
		t.Error("Scalar(true) Bool failed")
	}
	if _, ok := Scalar("yes", 1).Bool(); ok {
		t.Error("non-bool scalar should fail Bool")
	}
	if _, ok := FromVals([]value.V{true, false}).Bool(); ok {
		t.Error("diverging bools should fail Bool")
	}
}

func TestApplyDedup(t *testing.T) {
	calls := 0
	f := func(args []value.V) value.V {
		calls++
		return args[0].(float64) + args[1].(float64)
	}
	// All collapsed: one call, collapsed result.
	out := Apply(f, Scalar(float64(1), 4), Scalar(float64(2), 4))
	if calls != 1 {
		t.Errorf("collapsed Apply called f %d times, want 1", calls)
	}
	if !out.Collapsed() || out.At(0) != float64(3) {
		t.Errorf("out = %v", out)
	}
	// One expanded: per-entry calls.
	calls = 0
	out = Apply(f, FromVals([]value.V{float64(1), float64(2), float64(3), float64(4)}), Scalar(float64(10), 4))
	if calls != 4 {
		t.Errorf("expanded Apply called f %d times, want 4", calls)
	}
	if out.Collapsed() {
		t.Error("distinct outputs should stay expanded")
	}
	if out.At(2) != float64(13) {
		t.Errorf("out[2] = %v", out.At(2))
	}
}

func TestApplyRecollapses(t *testing.T) {
	// Expanded inputs whose outputs agree must collapse back.
	f := func(args []value.V) value.V { return "const" }
	out := Apply(f, FromVals([]value.V{"a", "b"}))
	if !out.Collapsed() {
		t.Error("uniform outputs should re-collapse")
	}
}

func TestApplyWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch should panic")
		}
	}()
	Apply(func(a []value.V) value.V { return nil }, Scalar("x", 2), Scalar("y", 3))
}

func TestApplyNoArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with no arguments should panic")
		}
	}()
	Apply(func(a []value.V) value.V { return nil })
}

func TestEqual(t *testing.T) {
	a := FromVals([]value.V{"x", "y"})
	b := FromVals([]value.V{"x", "y"})
	c := FromVals([]value.V{"x", "z"})
	if !Equal(a, b) {
		t.Error("equal MVs reported unequal")
	}
	if Equal(a, c) {
		t.Error("unequal MVs reported equal")
	}
	if Equal(Scalar("x", 2), Scalar("x", 3)) {
		t.Error("different widths reported equal")
	}
	if !Equal(Scalar("x", 2), FromVals([]value.V{"x", "x"})) {
		t.Error("collapsed and equivalent expanded should be equal")
	}
}

func TestSelect(t *testing.T) {
	m := FromVals([]value.V{"a", "b", "c"})
	s := m.Select([]int{2, 0})
	if s.Width() != 2 || s.At(0) != "c" || s.At(1) != "a" {
		t.Errorf("Select = %v", s)
	}
	col := Scalar("k", 5).Select([]int{1, 3})
	if !col.Collapsed() || col.Width() != 2 {
		t.Error("Select of collapsed should stay collapsed")
	}
}

func TestString(t *testing.T) {
	if s := Scalar("x", 2).String(); s == "" {
		t.Error("empty String for collapsed MV")
	}
	if s := FromVals([]value.V{"a", "b"}).String(); s == "" {
		t.Error("empty String for expanded MV")
	}
}

func TestQuickFromValsPreservesEntries(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		vals := make([]value.V, n)
		for i := range vals {
			vals[i] = float64(r.Intn(3))
		}
		m := FromVals(vals)
		for i := range vals {
			if !value.Equal(m.At(i), vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickApplyMatchesElementwise(t *testing.T) {
	// Apply must equal the naive per-element computation regardless of
	// collapse state.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := make([]value.V, n)
		b := make([]value.V, n)
		for i := range a {
			a[i] = float64(r.Intn(2))
			b[i] = float64(r.Intn(2))
		}
		sum := func(args []value.V) value.V { return args[0].(float64)*10 + args[1].(float64) }
		got := Apply(sum, FromVals(a), FromVals(b))
		for i := range a {
			want := a[i].(float64)*10 + b[i].(float64)
			if got.At(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
