package auditd

import (
	"context"
	"fmt"
	"testing"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

// recurringGets is one epoch's worth of a recurring read-only workload:
// identical inputs every epoch, so once the carry reaches a fixed point
// (immediately, for reads) every later epoch's tag-group closures repeat
// bit-for-bit and the memo cache should serve them.
func recurringGets() []server.Request {
	in := func(kv ...any) server.Request { return server.Request{Input: value.Map(kv...)} }
	return []server.Request{
		in("op", "get", "day", "mon"),
		in("op", "get", "day", "tue"),
		in("op", "get", "day", "wed"),
		in("op", "get", "day", "thu"),
	}
}

// TestMemoWarmAcrossEpochs: K epochs of an identical read-only workload
// audited through one auditor. The warm-up takes two epochs — epoch 1
// audits with no carry and epoch 2 is the first with an injected carry, so
// their input closures legitimately differ — after which the carry is at
// its fixed point and every later epoch must be served entirely from the
// memo cache, with the verdict and non-memo Stats identical to a memo-off
// auditor over the same log. The feeds row is the steady-state log the
// benchmark's feeds-steady workload serves: the app's recurring shapes at
// repeat fraction 1.0, so (K-2)/K of all groups hit.
func TestMemoWarmAcrossEpochs(t *testing.T) {
	for _, row := range []struct {
		spec             harness.AppSpec
		epochs, perEpoch int
		stream           func(t *testing.T, epoch, n int) []server.Request
	}{
		{harness.MOTDApp(), 4, 4, func(*testing.T, int, int) []server.Request { return recurringGets() }},
		{harness.FeedsApp(), 6, 37, func(t *testing.T, epoch, n int) []server.Request {
			reqs, err := workload.WithRepeats(workload.Feeds(n, workload.Mixed, 42+int64(epoch)), "feeds", 1.0, 42)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		}},
	} {
		t.Run(row.spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			col, err := collectorhttp.New(collectorhttp.Config{Spec: row.spec, Dir: dir, EpochRequests: row.perEpoch})
			if err != nil {
				t.Fatal(err)
			}
			ts := newLoopback(t, col)
			for epoch := 0; epoch < row.epochs; epoch++ {
				driveHTTP(t, ts, row.stream(t, epoch, row.perEpoch))
			}
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}

			cold, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := cold.RunOnce(context.Background()); err != nil || n != row.epochs {
				t.Fatalf("memo-off auditor accepted %d epochs (err %v), want %d", n, err, row.epochs)
			}

			ckpt := dir + "/audit.ckpt"
			warm, err := New(Config{Dir: dir, MemoMaxBytes: 64 << 20, Checkpoint: ckpt})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := warm.RunOnce(context.Background()); err != nil || n != row.epochs {
				t.Fatalf("memo-on auditor accepted %d epochs (err %v), want %d", n, err, row.epochs)
			}

			ws := warm.Status().Stats
			if ws.Groups%row.epochs != 0 || ws.Groups == 0 {
				t.Fatalf("Groups = %d across %d identical epochs, want a positive multiple", ws.Groups, row.epochs)
			}
			perEpoch := ws.Groups / row.epochs
			if ws.MemoMisses != 2*perEpoch || ws.MemoHits != (row.epochs-2)*perEpoch {
				t.Fatalf("hits=%d misses=%d; want epochs 1-2 cold (%d) and every later epoch all-hit (%d)",
					ws.MemoHits, ws.MemoMisses, 2*perEpoch, (row.epochs-2)*perEpoch)
			}
			got := fmt.Sprintf("%+v", ws.ZeroMemo())
			want := fmt.Sprintf("%+v", cold.Status().Stats.ZeroMemo())
			if got != want {
				t.Fatalf("memo-on Stats diverged from memo-off:\n  off: %s\n  on:  %s", want, got)
			}

			// The durable checkpoint doubles as the memo telemetry channel: the
			// collector's /healthz probes it with ProbeCheckpoint, so the counters
			// written on the last accept must round-trip.
			_, mc, _ := ProbeCheckpoint(nil, ckpt)
			if mc == nil || mc.Hits != ws.MemoHits || mc.Misses != ws.MemoMisses {
				t.Fatalf("checkpoint memo counters = %+v, want hits=%d misses=%d",
					mc, ws.MemoHits, ws.MemoMisses)
			}
		})
	}
}

// TestMemoFreshBoundaryInvalidates: a collector restart seals a Fresh epoch
// and the auditor drops the memo cache there, exactly as it drops the
// carry. The workload is read-only and identical on both sides of the
// restart, so without the reset the first post-restart epoch (audited with
// nil carry) would hit the entries the no-carry first epoch published —
// the post-restart cold misses prove the invalidation, not key divergence.
func TestMemoFreshBoundaryInvalidates(t *testing.T) {
	dir := t.TempDir()
	col1, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newLoopback(t, col1)
	driveHTTP(t, ts1, recurringGets()) // epoch 1: no carry
	driveHTTP(t, ts1, recurringGets()) // epoch 2: first carried epoch
	driveHTTP(t, ts1, recurringGets()) // epoch 3: carry fixed point — hits
	if err := col1.Close(); err != nil {
		t.Fatal(err)
	}
	col2, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newLoopback(t, col2)
	driveHTTP(t, ts2, recurringGets()) // epoch 4: sealed Fresh, no carry
	driveHTTP(t, ts2, recurringGets()) // epoch 5: first carried epoch again
	driveHTTP(t, ts2, recurringGets()) // epoch 6: back at the fixed point
	if err := col2.Close(); err != nil {
		t.Fatal(err)
	}

	aud, err := New(Config{Dir: dir, MemoMaxBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := aud.RunOnce(context.Background()); err != nil || n != 6 {
		t.Fatalf("accepted %d epochs (err %v), want 6", n, err)
	}
	st := aud.Status().Stats
	if st.Groups%6 != 0 || st.Groups == 0 {
		t.Fatalf("Groups = %d across 6 identical epochs, want a positive multiple of 6", st.Groups)
	}
	perEpoch := st.Groups / 6
	// Only epochs 3 and 6 hit. Epochs 1-2 are the cold ramp; the Fresh
	// boundary then resets the cache, so epoch 4 misses (it would have hit
	// epoch 1's entries — same nil-carry closure — had the cache survived)
	// and epoch 5 re-ramps the carried prefix before epoch 6 hits again.
	if st.MemoHits != 2*perEpoch || st.MemoMisses != 4*perEpoch {
		t.Fatalf("hits=%d misses=%d; want hits only at the two fixed-point epochs (%d) and %d misses",
			st.MemoHits, st.MemoMisses, 2*perEpoch, 4*perEpoch)
	}
}
