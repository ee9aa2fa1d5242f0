package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
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

// TestInternerTablesBounded: hostile input cannot grow an Interner's string
// table past its entry cap, and a string longer than maxInternLen is never
// entered. Decoding many distinct short strings stays proportional to the
// input in allocated bytes too.
func TestInternerTablesBounded(t *testing.T) {
	distinct := make([]V, 2*maxInternEntries)
	for i := range distinct {
		distinct[i] = fmt.Sprintf("s%d", i)
	}
	long := make([]V, 64)
	for i := range long {
		long[i] = strings.Repeat(string(rune('a'+i%26)), maxInternLen+1+i)
	}
	for _, tc := range []struct {
		name    string
		v       V
		entries int
	}{
		{"distinct-short-strings", distinct, maxInternEntries},
		{"long-strings", long, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := AppendBinary(nil, tc.v)
			var in Interner
			got, n, err := in.DecodeBinary(enc)
			if err != nil || n != len(enc) || string(AppendBinary(nil, got)) != string(enc) {
				t.Fatalf("interned decode: %d of %d bytes, err %v", n, len(enc), err)
			}
			if len(in.strs) != tc.entries {
				t.Fatalf("table holds %d strings, want %d (cap %d)", len(in.strs), tc.entries, maxInternEntries)
			}
			interned := allocatedBytes(func() { _, _, _ = new(Interner).DecodeBinary(enc) })
			plain := allocatedBytes(func() { _, _, _ = DecodeBinary(enc) })
			if interned > plain+16*uint64(len(enc)) {
				t.Errorf("interned decode allocates %d bytes, plain %d, input %d", interned, plain, len(enc))
			}
		})
	}
}

// varLog encodes vs as the values of one variable log, against one
// RefWriter.
func varLog(vs ...V) []byte {
	var w RefWriter
	var buf []byte
	for _, v := range vs {
		buf = w.AppendBinary(buf, v)
	}
	return buf
}

// decodeVarLog decodes buf as one variable log's values against one
// RefReader, returning the values and the bytes back-references expanded
// them by.
func decodeVarLog(buf []byte, maxExtra int) ([]V, int, error) {
	var refs RefReader
	var out []V
	extra := 0
	for off := 0; off < len(buf); {
		v, n, x, err := (*Interner)(nil).DecodeRefs(buf[off:], &refs, maxExtra-extra)
		if err != nil {
			return nil, 0, err
		}
		out, off, extra = append(out, v), off+n, extra+x
	}
	return out, extra, nil
}

// TestRefsDecodeToOneValue: a history entry that successive logged states
// repeat is written once and referenced after; the decoder hands every
// repeat back as the one value, and counts each reference's expansion so
// that wire length plus expansion is the plain encoding's length exactly.
func TestRefsDecodeToOneValue(t *testing.T) {
	var history []V
	var states []V
	for i := 0; i < 30; i++ {
		history = append(history[:len(history):len(history)], Map("msg", fmt.Sprintf("message %d", i), "day", "mon"))
		states = append(states, Map("history", history, "n", float64(i), "empty", List()))
	}
	var plain []byte
	for _, v := range states {
		plain = AppendBinary(plain, v)
	}
	wire := varLog(states...)
	if len(wire)*4 > len(plain) {
		t.Errorf("back-references shrink %d plain bytes only to %d", len(plain), len(wire))
	}
	got, extra, err := decodeVarLog(wire, len(plain))
	if err != nil {
		t.Fatal(err)
	}
	if len(wire)+extra != len(plain) {
		t.Errorf("wire %d + expansion %d, plain encoding %d", len(wire), extra, len(plain))
	}
	for i, v := range got {
		if string(AppendBinary(nil, v)) != string(AppendBinary(nil, states[i])) {
			t.Fatalf("state %d decodes to %s, want %s", i, String(v), String(states[i]))
		}
		if i == 0 {
			continue
		}
		prev, cur := got[i-1].(map[string]V)["history"].([]V), v.(map[string]V)["history"].([]V)
		for k := range prev {
			if !Same(prev[k], cur[k]) {
				t.Fatalf("history entry %d of states %d and %d decodes to two values", k, i-1, i)
			}
		}
	}
	// Re-encoding what was decoded finds the same repeats by identity.
	if again := varLog(got...); string(again) != string(wire) {
		t.Error("re-encoding the decoded log moves its bytes")
	}
}

// TestRefNeverLonger: a container is referenced only when the reference
// is shorter than its own encoding, so back-references never grow a log —
// not for a one-element list, and not past the 128th container, where the
// reference's index needs a second byte.
func TestRefNeverLonger(t *testing.T) {
	var vs []V
	for i := 0; i < 300; i++ {
		vs = append(vs, List(float64(i)))
	}
	small := List(nil)
	var plain []byte
	for _, v := range append(vs, vs...) {
		plain = AppendBinary(plain, v)
	}
	plain = AppendBinary(AppendBinary(plain, small), small)
	if wire := varLog(append(append(vs, vs...), small, small)...); len(wire) > len(plain) {
		t.Errorf("back-references grow %d plain bytes to %d", len(plain), len(wire))
	}
}

// TestHostileRefsRejected: every malformed back-reference errors and none
// panics — forward, self and ancestor references, indexes out of range,
// a reference where no variable log is being decoded, and a doubling chain
// whose expansion passes the bound, which must be refused in time linear
// in its wire length.
func TestHostileRefsRejected(t *testing.T) {
	ref := func(k uint64) []byte { return binary.AppendUvarint([]byte{tagRef}, k) }
	list := func(elems ...[]byte) []byte {
		b := binary.AppendUvarint([]byte{tagList}, uint64(len(elems)))
		for _, e := range elems {
			b = append(b, e...)
		}
		return b
	}
	one := []byte{tagNil}
	// A chain of 40 lists, each two references to the one before it: its
	// expansion doubles at every level.
	chain := list(one)
	for k := 0; k < 40; k++ {
		chain = append(chain, list(ref(uint64(k)), ref(uint64(k)))...)
	}
	for _, tc := range []struct {
		name string
		log  []byte
		want string
	}{
		{"forward", append(list(one), list(ref(2))...), "back-reference 2 to one of 1"},
		{"self", list(ref(0)), "back-reference 0 to one of 0"},
		{"ancestor", list(list(one), list(ref(2))), "back-reference 2 to one of 1"},
		{"out-of-range", append(list(one), ref(1000)...), "back-reference 1000"},
		{"huge-index", append(list(one), ref(1<<63)...), "back-reference 9223372036854775808"},
		{"truncated-index", append(list(one), tagRef), "truncated"},
		{"doubling-chain", chain, "expand the value past"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			if _, _, err := decodeVarLog(tc.log, 1<<28); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one saying %q", err, tc.want)
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("rejected after %v", el)
			}
		})
	}
	// Outside a variable log — a transaction's contents, a trace frame —
	// there is no table, and any reference is malformed.
	valid := list(list(one), ref(0))
	if _, _, err := decodeVarLog(valid, 1<<28); err != nil {
		t.Fatalf("a reference to a finished sibling rejected in a variable log: %v", err)
	}
	if _, _, err := DecodeBinary(valid); err == nil {
		t.Error("a reference without a table accepted")
	}
	if _, _, _, err := new(Interner).DecodeRefs(valid, nil, 1<<28); err == nil {
		t.Error("a reference with a nil table accepted")
	}
	// The same chain under a bound it fits: 2^40 does not, 2^10 levels do.
	if _, extra, err := decodeVarLog(chain[:len(list(one))+10*len(list(ref(0), ref(0)))], 1<<28); err != nil || extra == 0 {
		t.Errorf("a ten-level chain: expansion %d, err %v", extra, err)
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
