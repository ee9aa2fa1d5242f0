package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNormalizeNumericKinds(t *testing.T) {
	cases := []struct {
		in   V
		want float64
	}{
		{int(3), 3},
		{int8(-4), -4},
		{int16(500), 500},
		{int32(1 << 20), 1 << 20},
		{int64(-9), -9},
		{uint(7), 7},
		{uint8(255), 255},
		{uint16(65535), 65535},
		{uint32(1 << 30), 1 << 30},
		{uint64(1 << 40), 1 << 40},
		{float32(1.5), 1.5},
		{float64(2.25), 2.25},
	}
	for _, c := range cases {
		got := Normalize(c.in)
		if f, ok := got.(float64); !ok || f != c.want {
			t.Errorf("Normalize(%T %v) = %v, want float64 %v", c.in, c.in, got, c.want)
		}
	}
}

func TestNormalizeRecursive(t *testing.T) {
	in := map[string]V{
		"a": int(1),
		"b": []V{int32(2), "x", map[string]V{"c": uint8(3)}},
	}
	got := Normalize(in).(map[string]V)
	if got["a"] != float64(1) {
		t.Errorf("a = %v", got["a"])
	}
	lst := got["b"].([]V)
	if lst[0] != float64(2) {
		t.Errorf("b[0] = %v", lst[0])
	}
	inner := lst[2].(map[string]V)
	if inner["c"] != float64(3) {
		t.Errorf("b[2].c = %v", inner["c"])
	}
}

func TestNormalizeCanonicalReturnsSameReference(t *testing.T) {
	m := Map("k", "v", "n", 1)
	got := Normalize(m)
	if reflect.ValueOf(got).Pointer() != reflect.ValueOf(m).Pointer() {
		t.Error("Normalize of canonical map should return the same map, not a copy")
	}
	l := List(1, "a", nil)
	got2 := Normalize(l)
	if reflect.ValueOf(got2).Pointer() != reflect.ValueOf(l).Pointer() {
		t.Error("Normalize of canonical list should return the same slice")
	}
}

func TestNormalizeUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normalize of a chan should panic")
		}
	}()
	Normalize(make(chan int))
}

func TestEqualBasics(t *testing.T) {
	eq := []struct{ a, b V }{
		{nil, nil},
		{true, true},
		{float64(1), float64(1)},
		{"x", "x"},
		{List(1, 2), List(1, 2)},
		{Map("a", 1, "b", List("x")), Map("b", List("x"), "a", 1)},
	}
	for _, c := range eq {
		if !Equal(c.a, c.b) {
			t.Errorf("Equal(%v, %v) = false, want true", c.a, c.b)
		}
	}
	ne := []struct{ a, b V }{
		{nil, false},
		{true, false},
		{float64(1), float64(2)},
		{float64(1), "1"},
		{"x", "y"},
		{List(1), List(1, 2)},
		{List(1, 2), List(2, 1)},
		{Map("a", 1), Map("a", 2)},
		{Map("a", 1), Map("b", 1)},
		{Map("a", 1), Map("a", 1, "b", 2)},
	}
	for _, c := range ne {
		if Equal(c.a, c.b) {
			t.Errorf("Equal(%v, %v) = true, want false", c.a, c.b)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := Map("list", List(1, 2), "m", Map("k", "v"))
	cl := Clone(orig).(map[string]V)
	if !Equal(orig, cl) {
		t.Fatal("clone not equal to original")
	}
	cl["m"].(map[string]V)["k"] = "changed"
	cl["list"].([]V)[0] = float64(99)
	if orig["m"].(map[string]V)["k"] != "v" {
		t.Error("mutating clone's nested map changed the original")
	}
	if orig["list"].([]V)[0] != float64(1) {
		t.Error("mutating clone's nested list changed the original")
	}
}

func TestEncodeDeterministicMapOrder(t *testing.T) {
	// Build the same map with different insertion orders; the encoding must
	// be identical because Digest feeds tags and handler ids.
	m1 := map[string]V{}
	m2 := map[string]V{}
	keys := []string{"z", "a", "m", "q", "b"}
	for _, k := range keys {
		m1[k] = k + "!"
	}
	for i := len(keys) - 1; i >= 0; i-- {
		m2[keys[i]] = keys[i] + "!"
	}
	if string(Encode(nil, m1)) != string(Encode(nil, m2)) {
		t.Error("encodings of equal maps differ")
	}
}

func TestEncodeDistinguishesKinds(t *testing.T) {
	// Values that print the same must still encode differently.
	pairs := [][2]V{
		{"1", float64(1)},
		{nil, "null"},
		{true, "true"},
		{List(), Map()},
		{List("ab"), List("a", "b")},
	}
	for _, p := range pairs {
		if string(Encode(nil, p[0])) == string(Encode(nil, p[1])) {
			t.Errorf("Encode(%v) == Encode(%v)", p[0], p[1])
		}
	}
}

// TestEncodeGolden pins Encode's exact bytes and Digest of one nested value,
// recorded before the encoder stopped boxing map keys: Digest feeds HIDs and
// tags, so any byte drift here would change advice bytes.
func TestEncodeGolden(t *testing.T) {
	v := Map("scope", "day", "day", "mon", "msg", "hello", "n", 3, "l", List("a", Map("x", 1)),
		"f", -1.5, "ok", true, "none", nil, "big", 1e300, "empty", "")
	const want = "{10:s3:bigd7e37e43c8800759c;s3:days3:mons5:emptys0:s1:fdbff8000000000000;" +
		"s1:l[2:s1:a{1:s1:xd3ff0000000000000;}]s3:msgs5:hellos1:nd4008000000000000;" +
		"s4:nonens2:okts5:scopes3:day}"
	if got := string(Encode(nil, v)); got != want {
		t.Errorf("Encode drifted:\n got  %q\n want %q", got, want)
	}
	if got := Digest(v); got != 0xbf75d7fd8bb96fd5 {
		t.Errorf("Digest = %#016x, want 0xbf75d7fd8bb96fd5", got)
	}
}

func TestEncodeSmallMapsDoNotAllocate(t *testing.T) {
	v := Map("scope", "day", "day", "mon", "msg", "hello", "n", 3, "l", List("a", Map("x", 1)))
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = Encode(buf[:0], v) }); n != 0 {
		t.Errorf("Encode of a small nested map allocates %v times, want 0", n)
	}
}

func TestEncodedLenExact(t *testing.T) {
	fixed := []V{
		0.0, -1.0, 1e300, float64(1 << 60), "", "0123456789",
		Map("a", List(1, "b", Map("c", nil, "d", true)), "e", List()),
		List(Map(), List(List()), 1e-300),
		List(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
	}
	for _, v := range fixed {
		if got, want := EncodedLen(v), len(Encode(nil, v)); got != want {
			t.Errorf("EncodedLen(%s) = %d, want %d", String(v), got, want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := randomValue(r, 4)
		if got, want := EncodedLen(v), len(Encode(nil, v)); got != want {
			t.Fatalf("EncodedLen(%s) = %d, want %d", String(v), got, want)
		}
	}
}

func TestDigestStable(t *testing.T) {
	v := Map("op", "get", "day", "mon", "n", 3.5)
	d1, d2 := Digest(v), Digest(Clone(v))
	if d1 != d2 {
		t.Error("digest of clone differs")
	}
	if DigestString(v) != DigestString(v) {
		t.Error("DigestString unstable")
	}
	if len(DigestString(v)) != 16 {
		t.Errorf("DigestString length = %d, want 16", len(DigestString(v)))
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		in   V
		want string
	}{
		{nil, "null"},
		{true, "true"},
		{float64(3), "3"},
		{"hi", `"hi"`},
		{List(1, "a"), `[1,"a"]`},
		{Map("b", 2, "a", 1), `{"a":1,"b":2}`},
	}
	for _, c := range cases {
		if got := String(c.in); got != c.want {
			t.Errorf("String(%v) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestMapListHelpers(t *testing.T) {
	m := Map("n", 1, "s", "x")
	if m["n"] != float64(1) {
		t.Error("Map did not normalize int")
	}
	l := List(int8(2))
	if l[0] != float64(2) {
		t.Error("List did not normalize int8")
	}
	defer func() {
		if recover() == nil {
			t.Error("Map with odd args should panic")
		}
	}()
	Map("only-key")
}

func TestMapNonStringKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Map with non-string key should panic")
		}
	}()
	Map(1, "v")
}

// randomValue generates an arbitrary canonical value of bounded depth for
// property tests.
func randomValue(r *rand.Rand, depth int) V {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return r.Intn(2) == 0
		case 2:
			return math.Trunc(r.Float64()*1000) / 4
		default:
			return string(rune('a' + r.Intn(26)))
		}
	}
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return float64(r.Intn(100))
	case 3:
		return string(rune('a' + r.Intn(26)))
	case 4:
		n := r.Intn(4)
		l := make([]V, n)
		for i := range l {
			l[i] = randomValue(r, depth-1)
		}
		return l
	default:
		n := r.Intn(4)
		m := make(map[string]V, n)
		for i := 0; i < n; i++ {
			m[string(rune('a'+r.Intn(26)))] = randomValue(r, depth-1)
		}
		return m
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		return Equal(v, Clone(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualImpliesEqualDigest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		w := Clone(v)
		return Digest(v) == Digest(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		return Equal(Normalize(v), Normalize(Normalize(v)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodeInjectiveOnSamples(t *testing.T) {
	// Distinct values (as per Equal) must encode distinctly; sample pairs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomValue(r, 2)
		b := randomValue(r, 2)
		ea, eb := string(Encode(nil, a)), string(Encode(nil, b))
		if Equal(a, b) {
			return ea == eb
		}
		return ea != eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
