package value

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	cases := []V{
		nil,
		true,
		false,
		float64(0),
		float64(-3.75),
		"",
		"hello",
		List(),
		List(float64(1), "two", nil, true),
		Map(),
		Map("b", float64(2), "a", List("x", Map("deep", nil))),
	}
	for i, v := range cases {
		enc := AppendBinary(nil, v)
		got, n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(enc))
		}
		if !Equal(got, v) {
			t.Fatalf("case %d: round trip mismatch: %v vs %v", i, got, v)
		}
	}
}

func TestBinaryDeterministicMapOrder(t *testing.T) {
	a := AppendBinary(nil, Map("x", float64(1), "y", float64(2), "z", float64(3)))
	b := AppendBinary(nil, Map("z", float64(3), "y", float64(2), "x", float64(1)))
	if string(a) != string(b) {
		t.Error("equal maps encode to different bytes")
	}
}

func TestBinaryRejectsHostileLengths(t *testing.T) {
	// A declared list length far beyond the input must error, not allocate.
	hostile := []byte{5}
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if _, _, err := DecodeBinary(hostile); err == nil {
		t.Error("inflated list length accepted")
	}
	// Same for maps and strings.
	hostile = []byte{6}
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if _, _, err := DecodeBinary(hostile); err == nil {
		t.Error("inflated map length accepted")
	}
	hostile = []byte{4}
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if _, _, err := DecodeBinary(hostile); err == nil {
		t.Error("inflated string length accepted")
	}
	// Truncations at every prefix error rather than panic.
	full := AppendBinary(nil, Map("k", List("a", float64(1), true)))
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeBinary(full[:i]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", i)
		}
	}
	if _, _, err := DecodeBinary([]byte{42}); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestAppendBinaryPanicsOnUnencodable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unencodable kind")
		}
	}()
	AppendBinary(nil, struct{}{})
}

// TestInternerDecodeMatchesPlain: decoding through one shared Interner gives
// the same values, consuming the same bytes, as the plain decoder — over
// 2000 random values whose strings repeat across samples.
func TestInternerDecodeMatchesPlain(t *testing.T) {
	var in Interner
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := randomValue(r, 4)
		enc := AppendBinary(nil, v)
		want, wn, err := DecodeBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, gn, err := in.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("interned decode of %s: %v", String(v), err)
		}
		if gn != wn || !Equal(got, want) || string(AppendBinary(nil, got)) != string(enc) {
			t.Fatalf("interned decode of %s = %s (%d bytes), plain %s (%d bytes)", String(v), String(got), gn, String(want), wn)
		}
	}
}

// TestInternerAllocatesContainersOnly: once an Interner has seen a value's
// strings, decoding it again allocates exactly what decoding the same shape
// with no strings at all does — the list and the maps, never a string.
func TestInternerAllocatesContainersOnly(t *testing.T) {
	words := AppendBinary(nil, List("request", "handler", "request",
		Map("scope", "day", "msg", "hello"), Map("scope", "day", "msg", "hello")))
	shape := AppendBinary(nil, List(nil, nil, nil, Map("a", nil, "b", nil), Map("a", nil, "b", nil)))
	var in Interner
	decode := func(buf []byte, in *Interner) {
		if _, _, err := in.DecodeBinary(buf); err != nil {
			t.Fatal(err)
		}
	}
	decode(words, &in)
	got := testing.AllocsPerRun(100, func() { decode(words, &in) })
	base := testing.AllocsPerRun(100, func() { decode(shape, nil) })
	if got != base {
		t.Errorf("warm interned decode allocates %v times, a string-free value of the same shape %v", got, base)
	}
	if plain := testing.AllocsPerRun(100, func() { decode(words, nil) }); plain <= got {
		t.Errorf("uninterned decode allocates %v times, no more than interned (%v)", plain, got)
	}
}

// TestDecodeSmallIntegersKeepBits: the boxed small-integer table serves
// exactly the integers 0–255; every other number, -0 and NaN included,
// decodes bit for bit.
func TestDecodeSmallIntegersKeepBits(t *testing.T) {
	for _, f := range []float64{0, 1, 255, math.Copysign(0, -1), -1, 256, 3.5, 1e300, math.NaN(), math.Inf(1)} {
		got, _, err := DecodeBinary(AppendBinary(nil, f))
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := got.(float64); !ok || math.Float64bits(g) != math.Float64bits(f) {
			t.Errorf("decode(%v) = %#v, bits differ", f, got)
		}
	}
	small := AppendBinary(nil, float64(42))
	if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeBinary(small) }); n != 0 {
		t.Errorf("decoding a small integer allocates %v times, want 0", n)
	}
}
