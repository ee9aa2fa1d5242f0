package advice_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

// TestOlderBodiesStillDecode: sealed evidence written before back-references
// or before compression stays auditable. The fixtures are bare bodies, each
// encoded by the encoder of its format from harness.Serve of motd and wiki
// (workload.Mixed, 12 requests, seed 3, window 4, Karousos advice): KADV2
// blobs, and the KADV3 blobs MarshalBinary shipped before frames. Both
// decode to the same advice, whose re-encoding is a KADV4 frame that
// decodes to equal advice and wraps exactly the KADV3 body: the frame's
// declared body length is the KADV3 blob's, and its expanded size the KADV2
// blob's length, since a back-reference stands for exactly the bytes the
// older format spelled out.
func TestOlderBodiesStillDecode(t *testing.T) {
	for _, app := range []string{"motd", "wiki"} {
		t.Run(app, func(t *testing.T) {
			v2, v3 := fixture(t, "kadv2-"+app+".bin", "KADV2\x00"), fixture(t, "kadv3-"+app+".bin", "KADV3\x00")
			a, err := advice.UnmarshalBinary(v2)
			if err != nil {
				t.Fatalf("KADV2 blob rejected: %v", err)
			}
			a3, err := advice.UnmarshalBinary(v3)
			if err != nil {
				t.Fatalf("KADV3 blob rejected: %v", err)
			}
			if !reflect.DeepEqual(a, a3) {
				t.Fatal("the KADV2 and KADV3 fixtures decode to different advice")
			}
			blob := a.MarshalBinary()
			if !bytes.HasPrefix(blob, []byte("KADV4\x00")) || len(blob) > len(v3) {
				t.Fatalf("re-encoded to %d bytes from %d, magic %q", len(blob), len(v3), blob[:6])
			}
			b, err := advice.UnmarshalBinary(blob)
			if err != nil {
				t.Fatalf("KADV4 re-encoding rejected: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("KADV4 re-encoding decodes to different advice")
			}
			if n, err := advice.BodySize(blob); err != nil || n != len(v3) {
				t.Errorf("frame declares a %d-byte body (err %v), KADV3 blob %d bytes", n, err, len(v3))
			}
			for _, enc := range [][]byte{v3, blob} {
				if raw, err := advice.ExpandedSize(enc); err != nil || raw != len(v2) {
					t.Errorf("expanded size %d (err %v) of %q, KADV2 blob %d bytes", raw, err, enc[:6], len(v2))
				}
			}
		})
	}
}

func fixture(t *testing.T, name, magic string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(magic)) {
		t.Fatalf("fixture %s is not a %q blob", name, magic)
	}
	return b
}

// TestDrainedBlobRoundTrips: for every app at windows 1 and 15, with a
// drain every seventh request, the sealed blob (MarshalBinary of the
// drained advice) survives a decode and re-encode byte for byte, and the
// re-encoding of a clone is byte-stable too. In decoded motd advice, the
// history entries one logged write shares with the write it extends are
// the one value each.
func TestDrainedBlobRoundTrips(t *testing.T) {
	for _, app := range []string{"motd", "stacks", "wiki", "feeds"} {
		spec, err := harness.SpecByName(app)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.For(app, workload.WriteHeavy, 60, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 15} {
			t.Run(fmt.Sprintf("%s/window%d", app, window), func(t *testing.T) {
				a, st := spec.New()
				srv := server.New(server.Config{App: a, Store: st, Seed: 42, CollectKarousos: true})
				if _, err := srv.Run(reqs, window); err != nil {
					t.Fatal(err)
				}
				kar, _ := srv.DrainAdvice()
				blob := kar.MarshalBinary()
				dec, err := advice.UnmarshalBinary(blob)
				if err != nil {
					t.Fatal(err)
				}
				if again := dec.MarshalBinary(); !bytes.Equal(again, blob) {
					t.Fatalf("decoded advice re-encodes to %d bytes that differ from the blob's %d", len(again), len(blob))
				}
				if clone := dec.Clone().MarshalBinary(); !bytes.Equal(clone, blob) {
					t.Fatal("a clone of the decoded advice re-encodes differently")
				}
				if app == "motd" {
					if pairs := sharedHistory(t, dec); pairs < 10 {
						t.Errorf("only %d pairs of logged writes extend one another's history", pairs)
					}
				}
			})
		}
	}
}

// sharedHistory checks, for every two consecutive logged writes of each
// variable whose second history extends the first by one entry, that the
// k-th entries of both are one value (value.Same); it returns how many
// such pairs it checked.
func sharedHistory(t *testing.T, a *advice.Advice) int {
	t.Helper()
	pairs := 0
	for id, entries := range a.VarLogs {
		var prev []value.V
		for i := range entries {
			e := &entries[i]
			if e.Type != advice.AccessWrite {
				continue
			}
			st, _ := e.Value.(map[string]value.V)
			hist, _ := st["history"].([]value.V)
			if len(prev) > 0 && len(hist) == len(prev)+1 && value.Equal(hist[:len(prev)], prev) {
				for k := range prev {
					if !value.Same(hist[k], prev[k]) {
						t.Fatalf("%s entry %d: history entry %d decodes to a second value", id, i, k)
					}
				}
				pairs++
			}
			prev = hist
		}
	}
	return pairs
}
