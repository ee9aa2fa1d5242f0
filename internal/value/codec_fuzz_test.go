package value

import (
	"math/rand"
	"testing"
)

// FuzzDecodeValue hands the value decoder arbitrary bytes, decoding each
// input twice through one Interner (the second time against a table the
// first decode filled) and once without. Two properties hold for every
// input: the interned decodes are the plain decode — equal bit for bit, so
// value.Equal wherever no NaN is involved — consuming the same bytes or
// failing alike; and whatever decodes re-encodes canonically, so its
// canonical encoding decodes back through the warm Interner to the same
// bytes.
func FuzzDecodeValue(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		f.Add(AppendBinary(nil, List(randomValue(r, 4), randomValue(r, 4), randomValue(r, 4))))
	}
	entry := Map("scope", "day", "msg", "hello", "n", float64(7))
	f.Add(AppendBinary(nil, List(entry, entry, List(entry, List()), Map("h", List(entry, entry)))))
	f.Add([]byte{tagMap, 2, 1, 'k', tagNil, 1, 'k', tagTrue}) // duplicate key: not canonical
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
		if werr != nil {
			return
		}
		enc := AppendBinary(nil, want)
		back, n, err := in.DecodeBinary(enc)
		if err != nil || n != len(enc) || string(AppendBinary(nil, back)) != string(enc) {
			t.Fatalf("canonical encoding %x of %s does not round-trip: %d bytes, err %v", enc, String(want), n, err)
		}
	})
}
