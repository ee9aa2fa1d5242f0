package advice

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// Hand-built value encodings for hostile blobs. Tags are the canonical
// encoding's (internal/value): 0 nil, 4 string, 5 list, 7 back-reference.
func refEnc(k uint64) []byte { return binary.AppendUvarint([]byte{7}, k) }

func listEnc(elems ...[]byte) []byte {
	b := binary.AppendUvarint([]byte{5}, uint64(len(elems)))
	for _, e := range elems {
		b = append(b, e...)
	}
	return b
}

var nilEnc = []byte{0}

// siblingRef is a list of a finished list and a reference to it.
func siblingRef() []byte { return listEnc(listEnc(nilEnc), refEnc(0)) }

// doublingChain is one value whose elements are a chain of levels lists,
// each two references to the one before it: its expansion doubles at every
// level.
func doublingChain(levels int) []byte {
	elems := [][]byte{listEnc(nilEnc)}
	for k := 0; k < levels; k++ {
		elems = append(elems, listEnc(refEnc(uint64(k)), refEnc(uint64(k))))
	}
	return listEnc(elems...)
}

// placeholder is a string no honest sample value holds; blobWith swaps its
// encoding for raw value bytes.
const placeholder = "\x00placeholder-for-hostile-bytes\x00"

// blobWith lays out sampleAdvice's bare body with the value at site
// replaced by raw value bytes, under magic.
func blobWith(site string, raw []byte, magic string) []byte {
	a := sampleAdvice()
	switch site {
	case "var-log":
		a.VarLogs["v"][0].Value = placeholder
	case "tx-contents":
		a.TxLogs[0].Ops[1].Contents = placeholder
	case "nondet":
		a.Nondet[0].Value = placeholder
	default:
		panic("unknown site " + site)
	}
	blob := a.appendBody(nil)
	enc := value.AppendBinary(nil, placeholder)
	if bytes.Count(blob, enc) != 1 {
		panic("placeholder not encoded exactly once")
	}
	blob = bytes.Replace(blob, enc, raw, 1)
	return append([]byte(magic), blob[len(bodyMagic):]...)
}

// TestHostileRefsRejected: every malformed back-reference in an advice blob
// is an error and never a panic — forward, self and ancestor references,
// an index out of range, a reference in a transaction's contents or a
// non-determinism record, any reference in a KADV2 blob, and a doubling
// chain, which must be refused on the expansion bound within a second.
func TestHostileRefsRejected(t *testing.T) {
	valid, chain := siblingRef(), doublingChain(40)
	for _, tc := range []struct {
		name, site, magic string
		raw               []byte
		want              string // "" accepts
	}{
		{"valid", "var-log", bodyMagic, valid, ""},
		{"forward", "var-log", bodyMagic, listEnc(listEnc(nilEnc), refEnc(2)), "back-reference 2 to one of 1"},
		{"self", "var-log", bodyMagic, listEnc(refEnc(0)), "back-reference 0 to one of 0"},
		{"ancestor", "var-log", bodyMagic, listEnc(listEnc(nilEnc), listEnc(refEnc(2))), "back-reference 2 to one of 1"},
		{"out-of-range", "var-log", bodyMagic, listEnc(listEnc(nilEnc), refEnc(1<<40)), "back-reference 1099511627776"},
		{"tx-contents", "tx-contents", bodyMagic, valid, "outside a variable log"},
		{"nondet", "nondet", bodyMagic, valid, "outside a variable log"},
		{"kadv2", "var-log", bodyMagicV2, valid, "outside a variable log"},
		{"doubling-chain", "var-log", bodyMagic, chain, "expand the value past"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := blobWith(tc.site, tc.raw, tc.magic)
			start := time.Now()
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked: %v", r)
				}
			}()
			n, err := ExpandedSize(blob)
			if el := time.Since(start); el > time.Second {
				t.Errorf("decoded in %v", el)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want == "" && n != len(blob)+1:
				t.Errorf("expanded size %d of a %d-byte blob, want one byte more", n, len(blob))
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one saying %q", err, tc.want)
			}
		})
	}
}

// TestRefsScopedToOneVariableLog: a reference names a container of its own
// variable log only; the same index in another variable's log is out of
// range there, and every variable log's numbering starts at zero.
func TestRefsScopedToOneVariableLog(t *testing.T) {
	shared := value.List("shared", "history")
	a := New(ModeKarousos)
	entry := func(rid core.RID, v value.V) VarLogEntry {
		return VarLogEntry{Op: core.Op{RID: rid, HID: "h", Num: 1}, Type: AccessWrite, Value: v}
	}
	a.VarLogs["v1"] = []VarLogEntry{entry("r1", shared), entry("r2", value.List(shared))}
	a.VarLogs["v2"] = []VarLogEntry{entry("r3", value.List(shared))}
	b, err := UnmarshalBinary(a.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := b.VarLogs["v1"], b.VarLogs["v2"]
	if !value.Same(v1[0].Value, v1[1].Value.([]value.V)[0]) {
		t.Error("a container repeated within one variable log decodes to two values")
	}
	if value.Same(v1[0].Value, v2[0].Value.([]value.V)[0]) {
		t.Error("a container repeated across variable logs was referenced across them")
	}
}
