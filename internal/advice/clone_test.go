package advice_test

import (
	"bytes"
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
