// Native fuzzing and exhaustive-truncation coverage for the binary codec.
// The decoder is the first thing untrusted advice touches, so its contract
// is absolute: any byte string yields either a decoded advice or an error —
// never a panic, and never an allocation much larger than the input.
package advice

import (
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

// TestDeclaredLengthClamped feeds a tiny blob whose section count claims
// 2^40 entries and checks the decoder neither succeeds nor allocates for
// the claim: decode-side memory must stay proportional to input size.
func TestDeclaredLengthClamped(t *testing.T) {
	e := &encoder{}
	e.buf = append(e.buf, bodyMagic...)
	e.str(string(ModeKarousos))
	e.uvarint(1 << 40) // tags section: a preposterous declared count
	evil := e.buf

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := UnmarshalBinary(evil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("inflated declared length accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding a %d-byte blob allocated %d bytes", len(evil), grew)
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
