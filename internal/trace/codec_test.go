package trace

import (
	"strings"
	"testing"

	"karousos.dev/karousos/internal/value"
)

func TestEventBinaryRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: Req, RID: "r1", Data: value.Map("op", "get", "n", float64(3))},
		{Kind: Resp, RID: "r1", Data: value.List("a", true, nil)},
		{Kind: Req, RID: "", Data: nil},
		{Kind: Resp, RID: "r2", Data: value.Map("nested", value.Map("k", value.List(float64(1), float64(2))))},
	}
	// Uninterned, and through one Interner shared by every event as a
	// sealed-epoch read shares it across frames.
	for _, in := range []*value.Interner{nil, new(value.Interner)} {
		for i, e := range events {
			enc := AppendEventBinary(nil, e)
			got, err := DecodeEventBinary(enc, in)
			if err != nil {
				t.Fatalf("event %d: decode: %v", i, err)
			}
			if got.Kind != e.Kind || got.RID != e.RID || !value.Equal(got.Data, e.Data) {
				t.Fatalf("event %d: round trip mismatch: %+v vs %+v", i, got, e)
			}
		}
	}
}

func TestEventBinaryRejectsMalformed(t *testing.T) {
	enc := AppendEventBinary(nil, Event{Kind: Req, RID: "r1", Data: value.Map("k", "v")})
	if _, err := DecodeEventBinary(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeEventBinary([]byte{99}, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := DecodeEventBinary(enc[:len(enc)-1], nil); err == nil {
		t.Error("truncated event accepted")
	}
	if _, err := DecodeEventBinary(append(enc, 0), nil); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	mk := func() *Trace {
		return collect(
			Event{Req, "r1", value.Map("a", float64(1))},
			Event{Req, "r2", value.Map("b", float64(2))},
			Event{Resp, "r1", "x"},
			Event{Resp, "r2", "y"},
		)
	}
	a, b := mk(), mk()
	if a.Digest() != b.Digest() {
		t.Fatal("equal traces digest differently")
	}
	if a.Digest() != a.Digest() {
		t.Fatal("digest unstable across calls")
	}
	// Reordering changes the digest.
	re := mk()
	re.Events[0], re.Events[1] = re.Events[1], re.Events[0]
	if re.Digest() == a.Digest() {
		t.Error("reordered trace digests equal")
	}
	// Altering a payload changes the digest.
	alt := mk()
	alt.Events[2].Data = "z"
	if alt.Digest() == a.Digest() {
		t.Error("altered payload digests equal")
	}
	// Dropping an event changes the digest.
	drop := mk()
	drop.Events = drop.Events[:3]
	if drop.Digest() == a.Digest() {
		t.Error("shortened trace digests equal")
	}
	if (&Trace{}).Digest() == a.Digest() {
		t.Error("empty trace digests equal to non-empty")
	}
}

// TestEventBinaryRejectsBackReference: a back-reference is valid only in an
// advice variable log, so an event whose data holds one — here a list of a
// finished list and a reference to it — is malformed.
func TestEventBinaryRejectsBackReference(t *testing.T) {
	enc := AppendEventBinary(nil, Event{Kind: Req, RID: "r1", Data: nil})
	enc = append(enc[:len(enc)-1], 5, 2, 5, 1, 0, 7, 0) // list(list(nil), ref 0)
	if _, err := DecodeEventBinary(enc, new(value.Interner)); err == nil || !strings.Contains(err.Error(), "back-reference") {
		t.Fatalf("event with a back-reference: err %v", err)
	}
}
