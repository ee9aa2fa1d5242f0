package advice_test

import (
	"bytes"
	"sync"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/workload"
)

// TestCloneReencodesIdentically: Clone is a round trip through the one wire
// format, so a clone of real advice — every app, both advice modes — must
// re-encode to the very bytes the original encodes to.
func TestCloneReencodesIdentically(t *testing.T) {
	for _, spec := range []harness.AppSpec{
		harness.MOTDApp(), harness.StacksApp(), harness.WikiApp(), harness.FeedsApp(),
	} {
		reqs, err := workload.For(spec.Name, workload.Mixed, 40, 17)
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Serve(spec, reqs, 6, 11, harness.CollectBoth)
		if err != nil {
			t.Fatalf("%s: serve: %v", spec.Name, err)
		}
		for _, a := range []*advice.Advice{res.Karousos, res.Orochi} {
			if want, got := a.MarshalBinary(), a.Clone().MarshalBinary(); !bytes.Equal(want, got) {
				t.Errorf("%s/%s: clone encodes to %d bytes that differ from the original's %d", spec.Name, a.Mode, len(got), len(want))
			}
		}
	}
}

// TestConcurrentCodecMatchesSequential: the codec's pooled flate writers,
// readers and body buffers are never shared by two encodes or decodes at
// once, and a frame never aliases one. Eight goroutines encode and decode
// the four apps' advice at once, each starting at a different app; every
// frame must equal the sequential encode byte for byte, and every decode
// must re-encode to that frame.
func TestConcurrentCodecMatchesSequential(t *testing.T) {
	var advs []*advice.Advice
	for _, spec := range []harness.AppSpec{
		harness.MOTDApp(), harness.StacksApp(), harness.WikiApp(), harness.FeedsApp(),
	} {
		reqs, err := workload.For(spec.Name, workload.Mixed, 60, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Serve(spec, reqs, 8, 5, harness.CollectKarousos)
		if err != nil {
			t.Fatalf("%s: serve: %v", spec.Name, err)
		}
		advs = append(advs, res.Karousos)
	}
	want := make([][]byte, len(advs))
	for i, a := range advs {
		want[i] = a.MarshalBinary()
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte // frames kept across later encodes: none may change under us
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(advs)
				frame := advs[i].MarshalBinary()
				if !bytes.Equal(frame, want[i]) {
					t.Errorf("goroutine %d round %d: frame of advice %d differs from the sequential encode", g, r, i)
				}
				held = append(held, frame)
				dec, err := advice.UnmarshalBinary(frame)
				if err != nil {
					t.Errorf("goroutine %d round %d: decode: %v", g, r, err)
					continue
				}
				if again := dec.MarshalBinary(); !bytes.Equal(again, want[i]) {
					t.Errorf("goroutine %d round %d: decoded advice %d re-encodes to a different frame", g, r, i)
				}
			}
			for r, frame := range held {
				if !bytes.Equal(frame, want[(g+r)%len(advs)]) {
					t.Errorf("goroutine %d: frame of round %d changed after later encodes", g, r)
				}
			}
		}()
	}
	wg.Wait()
}
