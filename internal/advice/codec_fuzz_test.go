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
	e.buf = append(e.buf, codecMagic...)
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
// giving the fuzzer deep starting points into every section decoder.
func FuzzDecodeAdvice(f *testing.F) {
	wire := sampleAdvice().MarshalBinary()
	f.Add(wire)
	for cut := 1; cut < len(wire); cut += len(wire)/16 + 1 {
		f.Add(wire[:cut])
	}
	f.Add([]byte(codecMagic))
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
// not once per entry, and so is the logged value's map, which is shared by
// its bytes. Doubling the entries allocates nothing more.
func TestDecodeCopiesEachStringOnce(t *testing.T) {
	wire := func(entries int) []byte {
		a := New(ModeKarousos)
		log := make([]VarLogEntry, entries)
		for i := range log {
			log[i] = VarLogEntry{
				Op:    core.Op{RID: "request-000042", HID: "handler-root-request", Num: 1},
				Type:  AccessWrite,
				Value: value.Map("msg", "the message of the day", "scope", "always"),
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
