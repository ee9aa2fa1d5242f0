package value

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
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

// TestInternerSharesSmallContainers: once an Interner has decoded a value
// whose lists and maps all end within maxShareLen bytes, decoding it again
// allocates nothing — every container is the shared one. A container longer
// than the bound still decodes fresh, and allocates exactly what a
// container of the same length and no contents does: its small children
// are shared.
func TestInternerSharesSmallContainers(t *testing.T) {
	entry := Map("scope", "day", "msg", "hello", "n", float64(7))
	small := AppendBinary(nil, List("request", "handler", entry, Map("scope", "day", "msg", "hello", "n", float64(7)), List()))
	if len(small) > maxShareLen {
		t.Fatalf("small value encodes to %d bytes, above the %d-byte bound", len(small), maxShareLen)
	}
	var in Interner
	decode := func(buf []byte, in *Interner) V {
		v, _, err := in.DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The first decode shares the inner containers; the outer list's key
	// would repeat their bytes, which the key-byte bound defers until the
	// Interner has decoded that many bytes more.
	first := decode(small, &in)
	second := decode(small, &in)
	if got := testing.AllocsPerRun(100, func() { decode(small, &in) }); got != 0 {
		t.Errorf("warm decode of a value within the bound allocates %v times, want 0", got)
	}
	if again := decode(small, &in); !Same(again, second) {
		t.Error("warm decode of a value within the bound is not the shared value")
	}
	if l := first.([]V); !Same(l[2], l[3]) {
		t.Error("two equal maps of one value decode to two maps")
	}

	history := make([]V, 40)
	shape := make([]V, len(history))
	for i := range history {
		history[i] = entry
	}
	big := AppendBinary(nil, history)
	if len(big) <= maxShareLen {
		t.Fatalf("big value encodes to %d bytes, within the %d-byte bound", len(big), maxShareLen)
	}
	a, b := decode(big, &in).([]V), decode(big, &in).([]V)
	if &a[0] == &b[0] {
		t.Error("a list above the bound was shared")
	}
	if !Same(a[0], b[0]) || !Same(a[0], first.([]V)[2]) {
		t.Error("the small maps inside a list above the bound were not shared")
	}
	got := testing.AllocsPerRun(100, func() { decode(big, &in) })
	shapeEnc := AppendBinary(nil, shape)
	base := testing.AllocsPerRun(100, func() { decode(shapeEnc, nil) })
	if got != base {
		t.Errorf("warm decode of a list above the bound allocates %v times, a list of nils of the same length %v", got, base)
	}
}

// TestInternerTablesBounded: hostile input cannot grow an Interner's
// container table past its entry cap or its key bytes past the input — not
// with many distinct small maps, and not with deep nests, whose every level
// repeats the levels inside it in its key. Decoding stays proportional to
// the input in allocated bytes too.
func TestInternerTablesBounded(t *testing.T) {
	distinct := make([]V, 2*maxShareEntries)
	for i := range distinct {
		distinct[i] = Map("k", float64(1000+i))
	}
	// Each element nests a distinct number 120 lists deep: about 250 bytes,
	// whose nested keys would total some 15 KB without the byte bound.
	nests := make([]V, 200)
	for i := range nests {
		var v V = float64(1000 + i)
		for d := 0; d < 120; d++ {
			v = List(v)
		}
		nests[i] = v
	}
	for _, tc := range []struct {
		name       string
		v          V
		fullTable  bool
		fullBudget bool
	}{
		{"distinct-small-maps", distinct, true, false},
		{"deep-nests", nests, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := AppendBinary(nil, tc.v)
			var in Interner
			got, n, err := in.DecodeBinary(enc)
			if err != nil || n != len(enc) || string(AppendBinary(nil, got)) != string(enc) {
				t.Fatalf("interned decode: %d of %d bytes, err %v", n, len(enc), err)
			}
			if len(in.trees) > maxShareEntries || in.treeBytes > len(enc) {
				t.Fatalf("table holds %d entries (cap %d) and %d key bytes (input %d)", len(in.trees), maxShareEntries, in.treeBytes, len(enc))
			}
			if tc.fullTable && len(in.trees) != maxShareEntries {
				t.Errorf("table holds %d entries, want the cap %d reached", len(in.trees), maxShareEntries)
			}
			if tc.fullBudget && in.treeBytes < len(enc)/2 {
				t.Errorf("table holds %d key bytes of a %d-byte input; the byte bound never bit", in.treeBytes, len(enc))
			}
			interned := allocatedBytes(func() { _, _, _ = new(Interner).DecodeBinary(enc) })
			plain := allocatedBytes(func() { _, _, _ = DecodeBinary(enc) })
			if interned > plain+16*uint64(len(enc)) {
				t.Errorf("interned decode allocates %d bytes, plain %d, input %d", interned, plain, len(enc))
			}
		})
	}
}

// allocatedBytes is the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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
