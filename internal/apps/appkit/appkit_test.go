package appkit

import (
	"testing"

	"karousos.dev/karousos/internal/value"
)

func TestField(t *testing.T) {
	m := value.Map("a", 1, "b", "x")
	if Field(m, "a") != float64(1) || Field(m, "b") != "x" {
		t.Error("Field lookup wrong")
	}
	if Field(m, "missing") != nil {
		t.Error("missing key should be nil")
	}
	if Field("not-a-map", "k") != nil {
		t.Error("non-map should be nil")
	}
	if Field(nil, "k") != nil {
		t.Error("nil should be nil")
	}
}

func TestScalarAccessors(t *testing.T) {
	if Str("x") != "x" || Str(nil) != "" || Str(1.0) != "" {
		t.Error("Str wrong")
	}
	if Num(2.5) != 2.5 || Num("x") != 0 || Num(nil) != 0 {
		t.Error("Num wrong")
	}
	if !Bool(true) || Bool(nil) || Bool("true") {
		t.Error("Bool wrong")
	}
}

func TestAsMapAsList(t *testing.T) {
	if len(AsMap(value.Map("k", 1))) != 1 {
		t.Error("AsMap wrong")
	}
	if AsMap(nil) == nil || len(AsMap("x")) != 0 {
		t.Error("AsMap of non-map should be empty, non-nil")
	}
	if len(AsList(value.List(1, 2))) != 2 {
		t.Error("AsList wrong")
	}
	if AsList("x") != nil {
		t.Error("AsList of non-list should be nil")
	}
}

// TestWithDoesNotMutate pins the copy-on-write contract: With and Without
// leave their argument as it was, and the map they return shares every
// nested value with it, since values are immutable (package value).
func TestWithDoesNotMutate(t *testing.T) {
	nested := value.Map("x", "y")
	list := value.List(1, 2)
	orig := value.Map("a", 1, "nested", nested, "list", list)
	derived := With(orig, "a", 2)
	if orig["a"] != float64(1) || len(orig) != 3 {
		t.Error("With mutated the original")
	}
	if derived["a"] != float64(2) || len(derived) != 3 {
		t.Error("With did not set the key")
	}
	removed := Without(orig, "a")
	if orig["a"] != float64(1) || len(orig) != 3 {
		t.Error("Without mutated the original")
	}
	for _, d := range []map[string]value.V{derived, removed} {
		if value.Same(d, orig) {
			t.Error("With/Without returned the original map instead of a copy")
		}
		if !value.Same(d["nested"], nested) || !value.Same(d["list"], list) {
			t.Error("With/Without copied a nested value instead of sharing it")
		}
	}
}

// TestAppendNeverSharesSpareCapacity: two lists appended to one list with
// spare capacity stay independent of each other and of that list, which is
// what an in-place append onto a shared state gets wrong.
func TestAppendNeverSharesSpareCapacity(t *testing.T) {
	base := make([]value.V, 2, 8)
	base[0], base[1] = "a", "b"
	left := Append(base, "left")
	right := Append(base, "right")
	if len(base) != 2 || base[:3][2] != nil {
		t.Error("Append wrote into its argument's backing array")
	}
	if !value.Equal(left, value.List("a", "b", "left")) || !value.Equal(right, value.List("a", "b", "right")) {
		t.Errorf("Append = %s, %s", value.String(left), value.String(right))
	}
	if d := Append(nil, 3); !value.Equal(d, value.List(3)) || d[0] != float64(3) {
		t.Errorf("Append(nil, 3) = %s, want a normalized one-element list", value.String(d))
	}
}

func TestWithNormalizes(t *testing.T) {
	d := With(value.Map(), "n", 7)
	if d["n"] != float64(7) {
		t.Errorf("With stored %T", d["n"])
	}
}

func TestWithout(t *testing.T) {
	orig := value.Map("a", 1, "b", 2)
	d := Without(orig, "a")
	if len(d) != 1 || d["b"] != float64(2) {
		t.Errorf("Without = %v", d)
	}
	if len(orig) != 2 {
		t.Error("Without mutated the original")
	}
	if len(Without(orig, "missing")) != 2 {
		t.Error("Without of missing key should keep everything")
	}
}

func TestWorkDeterministic(t *testing.T) {
	a := Work(value.Map("k", "v"), 1000)
	b := Work(value.Map("k", "v"), 1000)
	if a != b {
		t.Error("Work not deterministic")
	}
	if Work("x", 1000) == Work("y", 1000) {
		t.Error("Work should depend on the seed")
	}
	if Work("x", 1000) == Work("x", 1001) {
		t.Error("Work should depend on the iteration count")
	}
	if len(a) != 16 {
		t.Errorf("Work digest length = %d", len(a))
	}
}
