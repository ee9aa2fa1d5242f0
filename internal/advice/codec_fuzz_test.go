// Native fuzzing and exhaustive-truncation coverage for the binary codec.
// The decoder is the first thing untrusted advice touches, so its contract
// is absolute: any byte string yields either a decoded advice or an error —
// never a panic, and never an allocation much larger than the input.
package advice

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// TestBinaryTruncationEveryOffset cuts the sample advice at every byte
// offset (TestBinaryTruncationsRejected strides; this is exhaustive) and
// requires a clean error each time. The guard around the call turns a
// decoder panic into a test failure that names the offset.
func TestBinaryTruncationEveryOffset(t *testing.T) {
	full := sampleAdvice().MarshalBinary()
	for cut := 0; cut < len(full); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on truncation at %d: %v", cut, r)
				}
			}()
			if _, err := UnmarshalBinary(full[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}()
	}
	if _, err := UnmarshalBinary(full); err != nil {
		t.Fatalf("untruncated advice rejected: %v", err)
	}
}

// TestDeclaredLengthClamped splices a preposterous count into every place a
// length could be declared: at each offset of an honest advice body, and of
// a back-referencing variable log's values, where a uvarint parses, it
// substitutes 2^24 and then 2^40, and requires the decoder to return — an
// error or a decode — without panicking or allocating for the claim:
// decode-side memory must stay proportional to input size. 2^24 comes first
// because an unclamped 2^40 is a fatal out-of-memory that no recover sees
// and that names no offset; 2^24 elements is an allocation this test can
// measure and report, so a failing sweep stops the test before anything
// larger is spliced.
func TestDeclaredLengthClamped(t *testing.T) {
	entry := value.Map("scope", "day", "msg", "hello", "n", float64(7))
	history := value.List(entry, value.Map("scope", "always", "msg", "bye"))
	var w value.RefWriter
	var varLog []byte
	for _, v := range []value.V{value.Map("history", history), value.List(entry, entry, value.List(entry, value.List())), history} {
		varLog = w.AppendBinary(varLog, v)
	}
	decodeAdvice := func(b []byte) { _, _ = UnmarshalBinary(b) }
	decodeVarLog := func(b []byte) {
		var refs value.RefReader
		for off := 0; off < len(b); {
			_, n, _, err := new(value.Interner).DecodeRefs(b[off:], &refs, 1<<20)
			if err != nil {
				return
			}
			off += n
		}
	}
	inputs := []struct {
		name   string
		wire   []byte
		decode func([]byte)
	}{
		{"sample advice", sampleAdvice().appendBody(nil), decodeAdvice},
		{"history advice", historyAdvice(6).appendBody(nil), decodeAdvice},
		{"variable log", varLog, decodeVarLog},
	}
	// sweep splices huge at every uvarint offset of wire.
	sweep := func(t *testing.T, wire []byte, decode func([]byte), huge uint64) {
		var before, after runtime.MemStats
		for off := range wire {
			_, n := binary.Uvarint(wire[off:])
			if n <= 0 {
				continue
			}
			evil := binary.AppendUvarint(append([]byte(nil), wire[:off]...), huge)
			evil = append(evil, wire[off+n:]...)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("offset %d: decode panicked: %v", off, r)
					}
				}()
				runtime.ReadMemStats(&before)
				decode(evil)
				runtime.ReadMemStats(&after)
			}()
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("offset %d: decoding %d bytes allocated %d", off, len(evil), grew)
			}
		}
	}
	for _, in := range inputs {
		ok := t.Run(in.name, func(t *testing.T) {
			for _, exp := range []uint{24, 40} {
				if !t.Run(fmt.Sprintf("count=2^%d", exp), func(t *testing.T) {
					sweep(t, in.wire, in.decode, 1<<exp)
				}) {
					return
				}
			}
		})
		if !ok {
			return
		}
	}
}

// FuzzDecodeAdvice hands the decoder arbitrary bytes. The corpus seeds are
// the honest sample advice plus truncations at varied offsets (the same
// corruption family TestBinaryTruncationEveryOffset sweeps exhaustively),
// giving the fuzzer deep starting points into every section decoder, and
// blobs whose variable logs back-reference: an honest history logged at
// every write, a short doubling chain, and references where none is valid.
// Each sample is seeded both as a KADV4 frame, with its truncations, and as
// a bare body; hostile frames declare more or less than they inflate to,
// carry bytes after their stream, or are a bomb declaring a 256 MiB body.
func FuzzDecodeAdvice(f *testing.F) {
	for _, a := range []*Advice{sampleAdvice(), historyAdvice(6)} {
		for _, wire := range [][]byte{a.MarshalBinary(), a.appendBody(nil)} {
			f.Add(wire)
			for cut := 1; cut < len(wire); cut += len(wire)/16 + 1 {
				f.Add(wire[:cut])
			}
		}
	}
	f.Add([]byte(bodyMagic))
	f.Add([]byte(frameMagic))
	f.Add(blobWith("var-log", siblingRef(), bodyMagic))
	f.Add(blobWith("var-log", doublingChain(12), bodyMagic))
	f.Add(blobWith("var-log", listEnc(refEnc(0)), bodyMagic))
	f.Add(blobWith("tx-contents", siblingRef(), bodyMagic))
	f.Add(blobWith("var-log", siblingRef(), bodyMagicV2))
	body := sampleAdvice().appendBody(nil)
	z := deflate(body, frameLevel, true)
	f.Add(frameOf(uint64(len(body))+1, z))
	f.Add(frameOf(uint64(len(body))-1, z))
	f.Add(append(frameOf(uint64(len(body)), z), 0, 1, 2))
	f.Add(frameOf(uint64(len(body)), deflate(body, frameLevel, false)))
	f.Add(bombFrame(256 << 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalBinary(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode again: the codec
		// is canonical, so acceptance has to be stable across the wire.
		b := a.MarshalBinary()
		if _, err := UnmarshalBinary(b); err != nil {
			t.Fatalf("re-encoded advice fails to decode: %v", err)
		}
	})
}

// TestDecodeCopiesEachStringOnce: the request ID, handler ID, map keys and
// message a variable log repeats on every entry are copied once per decode,
// not once per entry, and the logged map every entry holds is decoded once:
// after its first entry it is a back-reference. Doubling the entries
// allocates nothing more.
func TestDecodeCopiesEachStringOnce(t *testing.T) {
	wire := func(entries int) []byte {
		a := New(ModeKarousos)
		log := make([]VarLogEntry, entries)
		state := value.Map("msg", "the message of the day", "scope", "always")
		for i := range log {
			log[i] = VarLogEntry{
				Op:    core.Op{RID: "request-000042", HID: "handler-root-request", Num: 1},
				Type:  AccessWrite,
				Value: state,
			}
		}
		a.VarLogs["motd-state"] = log
		return a.MarshalBinary()
	}
	allocs := func(blob []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(wire(100)), allocs(wire(200))
	if perEntry := (large - small) / 100; perEntry > 0 {
		t.Errorf("decode allocates %.2f times per repeated log entry, want 0", perEntry)
	}
}

// historyAdvice is advice whose one variable logs n writes of a state that
// keeps a growing history, as motd's does: each write repeats the previous
// history's entries and list, so the encoding back-references them.
func historyAdvice(n int) *Advice {
	a := New(ModeKarousos)
	var hist []value.V
	for i := 0; i < n; i++ {
		hist = append(hist[:len(hist):len(hist)], value.Map("msg", "message", "n", float64(i%3)))
		a.VarLogs["state"] = append(a.VarLogs["state"], VarLogEntry{
			Op:    core.Op{RID: core.RID("r" + string(rune('0'+i))), HID: "h", Num: 1},
			Type:  AccessWrite,
			Value: value.Map("history", hist, "last", hist[len(hist)-1]),
		})
	}
	return a
}
