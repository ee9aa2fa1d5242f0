package value

import (
	"math/rand"
	"testing"
)

// FuzzDecodeValue hands the value decoder arbitrary bytes, decoding each
// input twice through one Interner and once without, and then as the
// values of one variable log, back-references allowed. Three properties
// hold for every input: the interned decodes are the plain decode — equal
// bit for bit, consuming the same bytes or failing alike; whatever decodes
// plainly re-encodes canonically, round-trips through the Interner, and
// decodes identically as a variable log, expanding by nothing; and
// whatever decodes as a variable log re-encodes against a fresh RefWriter
// to a log that decodes to the same values, whose wire length plus
// expansion is their plain encodings' length.
func FuzzDecodeValue(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		f.Add(AppendBinary(nil, List(randomValue(r, 4), randomValue(r, 4), randomValue(r, 4))))
	}
	entry := Map("scope", "day", "msg", "hello", "n", float64(7))
	f.Add(AppendBinary(nil, List(entry, entry, List(entry, List()), Map("h", List(entry, entry)))))
	f.Add([]byte{tagMap, 2, 1, 'k', tagNil, 1, 'k', tagTrue}) // duplicate key: not canonical
	// Variable logs whose later values reference earlier containers.
	history := List(entry, Map("scope", "always", "msg", "bye"))
	f.Add(varLog(Map("history", history), Map("history", append(history[:2:2], entry), "n", float64(1)), history))
	f.Add(varLog(List(entry, entry, List(entry, List())), Map("h", List(entry, entry))))
	f.Add([]byte{tagList, 1, tagNil, tagList, 2, tagRef, 0, tagRef, 0}) // a doubling step
	f.Add([]byte{tagList, 1, tagRef, 0})                                // a self reference
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wn, werr := DecodeBinary(data)
		var in Interner
		for pass := 0; pass < 2; pass++ {
			got, gn, gerr := in.DecodeBinary(data)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("pass %d: interned decode error %v, plain %v", pass, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if gn != wn || string(AppendBinary(nil, got)) != string(AppendBinary(nil, want)) {
				t.Fatalf("pass %d: interned decode %s (%d bytes), plain %s (%d bytes)", pass, String(got), gn, String(want), wn)
			}
		}
		if werr == nil {
			enc := AppendBinary(nil, want)
			back, n, err := in.DecodeBinary(enc)
			if err != nil || n != len(enc) || string(AppendBinary(nil, back)) != string(enc) {
				t.Fatalf("canonical encoding %x of %s does not round-trip: %d bytes, err %v", enc, String(want), n, err)
			}
			got, gn, extra, err := in.DecodeRefs(data, new(RefReader), 1<<20)
			if err != nil || gn != wn || extra != 0 || string(AppendBinary(nil, got)) != string(enc) {
				t.Fatalf("reference-free value decodes as a variable log to %v (%d bytes, %d extra), err %v", got, gn, extra, err)
			}
		}

		vals, _, err := decodeVarLog(data, 1<<20)
		if err != nil {
			return
		}
		var plain []byte
		for _, v := range vals {
			plain = AppendBinary(plain, v)
		}
		wire := varLog(vals...)
		back, extra, err := decodeVarLog(wire, 1<<20)
		if err != nil || len(back) != len(vals) {
			t.Fatalf("re-encoded variable log %x fails to decode: %d of %d values, err %v", wire, len(back), len(vals), err)
		}
		var again []byte
		for _, v := range back {
			again = AppendBinary(again, v)
		}
		if string(again) != string(plain) || len(wire)+extra != len(plain) {
			t.Fatalf("re-encoded variable log decodes to %x (wire %d + %d extra), want %x", again, len(wire), extra, plain)
		}
	})
}
