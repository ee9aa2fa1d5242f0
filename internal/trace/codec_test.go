package trace

import (
	"fmt"
	"sync"
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
		c := NewCollector()
		c.Request("r1", value.Map("a", float64(1)))
		c.Request("r2", value.Map("b", float64(2)))
		c.Response("r1", "x")
		c.Response("r2", "y")
		return c.Trace()
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

// TestCollectorConcurrent exercises parallel Request/Response/Trace calls;
// run under -race it proves the collector's locking (an HTTP front-end
// records from concurrent connections).
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rid := fmt.Sprintf("w%d-%d", w, i)
				c.Request(rid, value.Map("i", float64(i)))
				c.Response(rid, float64(i))
			}
		}(w)
	}
	// A concurrent drainer slices the history while recording continues.
	done := make(chan *Trace)
	go func() {
		partial := c.Trace()
		done <- partial
	}()
	partial := <-done
	wg.Wait()
	rest := c.Trace()
	total := len(partial.Events) + len(rest.Events)
	if want := workers * perWorker * 2; total != want {
		t.Fatalf("lost events: got %d, want %d", total, want)
	}
	// The concatenated history must still be balanced.
	all := &Trace{Events: append(partial.Events, rest.Events...)}
	if err := all.CheckBalanced(); err != nil {
		t.Fatalf("concatenated trace unbalanced: %v", err)
	}
}
