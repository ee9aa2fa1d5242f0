package advice

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"
)

// frameOf builds a KADV4 frame by hand: magic, the declared body length,
// then payload.
func frameOf(declared uint64, payload []byte) []byte {
	f := binary.AppendUvarint([]byte(frameMagic), declared)
	return append(f, payload...)
}

// deflate compresses b as one stream at level; final is false to end the
// stream with a sync flush, no final block.
func deflate(b []byte, level int, final bool) []byte {
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, level)
	if err != nil {
		panic(err)
	}
	if _, err := zw.Write(b); err != nil {
		panic(err)
	}
	if final {
		err = zw.Close()
	} else {
		err = zw.Flush()
	}
	if err != nil {
		panic(err)
	}
	return out.Bytes()
}

// bombFrame is about a kilobyte of DEFLATE that inflates to a mebibyte of
// zeros, framed as declaring a body of declared bytes.
func bombFrame(declared uint64) []byte {
	return frameOf(declared, deflate(make([]byte, 1<<20), flate.BestCompression, true))
}

// TestFrameWrapsTheBody: MarshalBinary's frame is the magic, the body's
// length, and the body deflated at the frame's level — nothing else — and it
// decodes to the advice, with the body's expanded size.
func TestFrameWrapsTheBody(t *testing.T) {
	for _, a := range []*Advice{sampleAdvice(), historyAdvice(40)} {
		body := a.appendBody(nil)
		frame := a.MarshalBinary()
		if want := frameOf(uint64(len(body)), deflate(body, frameLevel, true)); !bytes.Equal(frame, want) {
			t.Fatalf("frame of %d bytes differs from the %d-byte hand-built frame", len(frame), len(want))
		}
		if n, err := BodySize(frame); err != nil || n != len(body) {
			t.Errorf("BodySize %d (err %v), body %d bytes", n, err, len(body))
		}
		raw, err := ExpandedSize(body)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ExpandedSize(frame); err != nil || n != raw {
			t.Errorf("frame expands to %d (err %v), its body to %d", n, err, raw)
		}
		b, err := UnmarshalBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		adviceEqual(t, a, b)
	}
}

// TestFrameStrict: a frame is refused unless its payload is one DEFLATE
// stream, ending in a final block, that inflates to exactly the declared
// length of a KADV3 body, with nothing after it.
func TestFrameStrict(t *testing.T) {
	body := sampleAdvice().appendBody(nil)
	n := uint64(len(body))
	z := deflate(body, frameLevel, true)
	v2 := append([]byte(bodyMagicV2), body[len(bodyMagic):]...)
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string // "" accepts
	}{
		{"honest", frameOf(n, z), ""},
		{"declares-more", frameOf(n+1, z), "inflates to"},
		{"declares-less", frameOf(n-1, z), "inflates past"},
		{"trailing-bytes", append(frameOf(n, z), 0), "follow the frame's stream"},
		{"no-final-block", frameOf(n, deflate(body, frameLevel, false)), "unexpected EOF"},
		{"truncated-payload", frameOf(n, z[:len(z)-1]), "unexpected EOF"},
		{"no-length", []byte(frameMagic), "truncated"},
		{"not-deflate", frameOf(n, body), "frame payload"},
		{"kadv2-body", frameOf(uint64(len(v2)), deflate(v2, frameLevel, true)), "not a KADV3 body"},
		{"nested-frame", func() []byte { f := frameOf(n, z); return frameOf(uint64(len(f)), deflate(f, frameLevel, true)) }(), "not a KADV3 body"},
		{"past-ratio", frameOf(uint64(len(z))*maxInflateRatio+inflateSlack+1, z), "may inflate to"},
		{"past-max-expanded", frameOf(MaxExpandedBytes+1, make([]byte, 1<<20)), "may inflate to"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalBinary(tc.frame)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one saying %q", err, tc.want)
			}
		})
	}
}

// TestFrameBombRefused: about a kilobyte of DEFLATE declaring a 256 MiB body
// is refused on the clamp before anything inflates, and the same payload
// declaring a body just short of what it inflates to is refused one byte
// past that. Either way the decode allocates no more than the clamp allows
// and returns within the bound of TestHostileRefsRejected's doubling chain.
func TestFrameBombRefused(t *testing.T) {
	for _, tc := range []struct {
		name     string
		declared uint64
		want     string
		alloc    uint64
	}{
		{"declares-256MiB", 256 << 20, "may inflate to", 64 << 10},
		{"declares-less-than-it-inflates", 1<<20 - 1, "inflates past", 2 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bomb := bombFrame(tc.declared)
			if len(bomb) > 2<<10 {
				t.Fatalf("bomb is %d bytes, want about a kilobyte", len(bomb))
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := UnmarshalBinary(bomb)
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one saying %q", err, tc.want)
			}
			if el > time.Second {
				t.Errorf("refused in %v", el)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.alloc {
				t.Errorf("refusing a %d-byte bomb allocated %d bytes, want at most %d", len(bomb), grew, tc.alloc)
			}
			if _, err := BodySize(bomb); (err == nil) != (tc.declared < 256<<20) {
				t.Errorf("BodySize error %v", err)
			}
		})
	}
}
