package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

// requestsFor is app's mixed workload; an unknown app fails the test.
func requestsFor(t testing.TB, spec harness.AppSpec, n int, seed int64) []server.Request {
	t.Helper()
	reqs, err := workload.For(spec.Name, workload.Mixed, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// sealLog serves reqs through a fresh collector on dir, sealing every
// epochRequests, and closes it cleanly (sealing the tail).
func sealLog(t testing.TB, spec harness.AppSpec, dir string, reqs []server.Request, epochRequests int) {
	t.Helper()
	col, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: epochRequests, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, reqs)
	ts.Close()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineAllAppsAccept is the tentpole E2E: every application served
// through the HTTP collector with epochs sealing mid-workload, a one-shard
// Sharded following the bare log while serving continues, and every epoch
// accepting.
func TestPipelineAllAppsAccept(t *testing.T) {
	for _, spec := range []harness.AppSpec{harness.MOTDApp(), harness.StacksApp(), harness.WikiApp(), harness.FeedsApp()} {
		t.Run(spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			col, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 20, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			ts := newLoopback(t, col)
			sh, err := NewSharded(ShardedConfig{Root: dir, Poll: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- sh.Run(ctx) }()

			driveHTTP(t, ts, requestsFor(t, spec, 60, 9))
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
			sealed, err := epochlog.ListSealed(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(sealed) != 3 {
				t.Fatalf("sealed %d epochs, want 3", len(sealed))
			}
			deadline := time.After(10 * time.Second)
			for sh.Result().Shards[0].Status.LastProcessed < sealed[2].Seq {
				select {
				case err := <-done:
					t.Fatalf("follower exited early: %v", err)
				case <-deadline:
					t.Fatal("follower never drained the log")
				case <-time.After(time.Millisecond):
				}
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("follow: %v", err)
			}
			res := sh.Result()
			if st := res.Shards[0].Status; !res.Accepted() || st.Accepted != 3 || st.Rejected != 0 || res.Stats.Requests != 60 {
				t.Errorf("accepted %d of 3 (rejected %d), %d requests re-executed, merge %+v", st.Accepted, st.Rejected, res.Stats.Requests, res.Merge)
			}
		})
	}
}

// newLoopback serves the collector on an httptest server torn down with
// the test.
func newLoopback(t testing.TB, col *collectorhttp.Collector) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(col.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// driveHTTP posts each request's input through the collector's /invoke
// endpoint.
func driveHTTP(t testing.TB, ts *httptest.Server, reqs []server.Request) {
	t.Helper()
	for _, r := range reqs {
		body, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
	}
}

// TestCorruptedAdviceRejectsWithCode: corrupting a sealed epoch's advice
// with each faultinject byte operator produces a machine-readable rejection
// (almost always MalformedAdvice — the blob no longer decodes), never a
// panic or an accept.
func TestCorruptedAdviceRejectsWithCode(t *testing.T) {
	ref := t.TempDir()
	spec := harness.WikiApp()
	sealLog(t, spec, ref, requestsFor(t, spec, 40, 9), 20)

	for _, op := range faultinject.Catalogue() {
		if op.Kind != faultinject.KindBytes {
			continue
		}
		t.Run(op.Name, func(t *testing.T) {
			dir := t.TempDir()
			ents, err := os.ReadDir(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join(ref, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			target := filepath.Join(dir, "ep000002.advice")
			wire, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := op.Apply(7, wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(target, mutated, 0o644); err != nil {
				t.Fatal(err)
			}

			aud, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			accepted, err := aud.RunOnce(context.Background())
			if err == nil {
				// The operator may happen to produce a decodable blob that
				// still matches the trace (e.g. a truncation landing on the
				// frame boundary); that counts as no corruption applied.
				if string(mutated) == string(wire) {
					return
				}
				t.Fatalf("corrupted epoch accepted (%d accepted)", accepted)
			}
			var rej *Reject
			if !errors.As(err, &rej) {
				t.Fatalf("corruption produced a non-reject error: %v", err)
			}
			if rej.Epoch != 2 || rej.Code == "" || rej.Code == core.RejectInternalFault {
				t.Fatalf("reject = %+v, want coded rejection of epoch 2", rej)
			}
			if accepted != 1 {
				t.Errorf("accepted %d epochs before the reject, want 1", accepted)
			}
		})
	}
}

// TestCollectorRestartAuditsAccept: restarting the collector rebuilds the
// application from scratch. The restart boundary is recorded on the trusted
// channel (Manifest.Fresh), and the auditor must drop carried prior-epoch
// state there: with stale carry, the post-restart epochs — whose responses
// reflect the rebuilt state, not the pre-restart writes — would falsely
// reject.
func TestCollectorRestartAuditsAccept(t *testing.T) {
	dir := t.TempDir()
	spec := harness.MOTDApp()
	in := func(kv ...any) server.Request { return server.Request{Input: value.Map(kv...)} }

	col1, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newLoopback(t, col1)
	driveHTTP(t, ts1, []server.Request{
		in("op", "set", "scope", "always", "msg", "pre-restart"),
		in("op", "get", "day", "mon"), // epoch 1 seals
		in("op", "get", "day", "tue"),
	})
	if err := col1.Close(); err != nil { // seals epoch 2
		t.Fatal(err)
	}

	// Restart: the "pre-restart" write lives only in epochs 1–2's history;
	// the rebuilt server answers from default state.
	col2, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newLoopback(t, col2)
	driveHTTP(t, ts2, []server.Request{
		in("op", "get", "day", "mon"),
		in("op", "get", "day", "tue"), // epoch 3 seals
	})
	if err := col2.Close(); err != nil {
		t.Fatal(err)
	}

	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 3 || !sealed[2].Fresh {
		t.Fatalf("sealed %d epochs (fresh flags %v %v %v), want 3 with epoch 3 fresh",
			len(sealed), sealed[0].Fresh, sealed[1].Fresh, sealed[2].Fresh)
	}
	aud, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("audit across the restart rejected: %v", err)
	}
	if n != 3 {
		t.Fatalf("accepted %d epochs, want 3", n)
	}
}

// TestManyEpochsSmallWindow: a backlog much larger than the prefetch
// window still audits completely and in order — the window bounds memory,
// not coverage.
func TestManyEpochsSmallWindow(t *testing.T) {
	dir := t.TempDir()
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, requestsFor(t, harness.MOTDApp(), 9, 3))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	aud, err := New(Config{Dir: dir, Workers: 1}) // look-ahead window of 2
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if n != 9 {
		t.Fatalf("accepted %d epochs, want 9", n)
	}
	if got := aud.Status().LastAccepted; got != 9 {
		t.Fatalf("LastAccepted = %d, want 9", got)
	}
}

// TestCheckpointResume: an auditor that accepted epochs, then died, resumes
// from its checkpoint — auditing only epochs sealed since, and accepting
// them even when they read state written before the restart.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(t.TempDir(), "checkpoint.json")
	spec := harness.WikiApp()
	reqs := requestsFor(t, spec, 60, 9)

	col, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: dir, EpochRequests: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, reqs[:30])

	aud1, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud1.RunOnce(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("first auditor accepted %d (err %v), want 2", n, err)
	}

	// Serve more epochs, then "restart": a fresh auditor from the
	// checkpoint must audit only the new epochs.
	driveHTTP(t, ts, reqs[30:])
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	aud2, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	if got := aud2.Status().LastAccepted; got != 2 {
		t.Fatalf("restarted auditor resumes at epoch %d, want 2", got)
	}
	n, err = aud2.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("post-restart audit rejected: %v", err)
	}
	if want := len(sealed) - 2; n != want {
		t.Fatalf("restarted auditor audited %d epochs, want %d", n, want)
	}
	if aud2.Status().LastAccepted != sealed[len(sealed)-1].Seq {
		t.Fatalf("restarted auditor stopped at %d of %d", aud2.Status().LastAccepted, sealed[len(sealed)-1].Seq)
	}

	// A third auditor finds nothing pending: accepted epochs are never
	// re-audited.
	aud3, err := New(Config{Dir: dir, Checkpoint: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := aud3.RunOnce(context.Background()); err != nil || n != 0 {
		t.Fatalf("third auditor re-audited %d epochs (err %v)", n, err)
	}
}

// TestPrefetchByteBound: with MaxPrefetchBytes squeezed below a single
// epoch's size, the window degenerates to one epoch in flight (the floor —
// an oversized epoch must stall the window, not wedge it), every epoch
// still audits, and the peak gauges record the boundedness.
func TestPrefetchByteBound(t *testing.T) {
	dir := t.TempDir()
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, requestsFor(t, harness.MOTDApp(), 6, 5))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	aud, err := New(Config{Dir: dir, Workers: 4, MaxPrefetchBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	if err != nil || n != 6 {
		t.Fatalf("audited %d epochs (err %v), want 6", n, err)
	}
	st := aud.Status()
	if st.PeakPrefetchEpochs != 1 {
		t.Fatalf("peak prefetch epochs = %d, want 1 (byte bound must floor the window)", st.PeakPrefetchEpochs)
	}
	if st.PeakPrefetchBytes <= 0 {
		t.Fatalf("peak prefetch bytes = %d, want > 0", st.PeakPrefetchBytes)
	}

	// Without the squeeze the same backlog fills the count window.
	aud2, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aud2.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := aud2.Status().PeakPrefetchEpochs; p != 4 {
		t.Fatalf("peak prefetch epochs = %d, want 4 (2×Workers)", p)
	}
}

// TestProbeCheckpoint: the one advisory reader of another process's
// checkpoint, one row per state of the file. The missing and corrupt rows
// are the regression for their conflation: a missing checkpoint means no
// auditor is attached (no lag signal; admission window stays open); a
// corrupt one means the auditor will quarantine it and restart from zero
// (progress zero is *known*, and the window must tighten against the whole
// sealed prefix). The old probe reported both as "unknown", releasing
// backpressure exactly when a torn checkpoint had made the backlog largest.
func TestProbeCheckpoint(t *testing.T) {
	// readFault makes a present checkpoint unreadable: corrupt, not
	// missing — the auditor cannot resume from it.
	readFault := iofault.NewInjector(iofault.OS)
	if err := readFault.Arm(iofault.OpTransientEIO, fault.Arm{Times: -1, Target: "checkpoint.json"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		contents string // "" leaves the file absent
		fs       iofault.FS
		wantLast uint64
		wantMemo *MemoCounters
		want     CheckpointProbe
	}{
		{name: "missing", want: CheckpointMissing},
		{name: "torn", contents: "{torn", want: CheckpointCorrupt},
		{name: "good", contents: `{"lastAccepted":3,"lastProcessed":5}`, wantLast: 5, want: CheckpointOK},
		{name: "pre-lastProcessed schema", contents: `{"lastAccepted":3}`, wantLast: 3, want: CheckpointOK},
		{name: "with memo counters", contents: `{"lastAccepted":2,"memo":{"hits":7,"misses":4,"evictions":1}}`,
			wantLast: 2, wantMemo: &MemoCounters{Hits: 7, Misses: 4, Evictions: 1}, want: CheckpointOK},
		{name: "read-faulted", contents: `{"lastAccepted":3,"lastProcessed":5}`, fs: readFault, want: CheckpointCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpPath := filepath.Join(t.TempDir(), "checkpoint.json")
			if tc.contents != "" {
				if err := os.WriteFile(cpPath, []byte(tc.contents), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			last, mc, probe := ProbeCheckpoint(tc.fs, cpPath)
			if last != tc.wantLast || probe != tc.want {
				t.Fatalf("probe = %d, %v; want %d, %v", last, probe, tc.wantLast, tc.want)
			}
			if (mc == nil) != (tc.wantMemo == nil) || (mc != nil && *mc != *tc.wantMemo) {
				t.Fatalf("memo counters = %+v, want %+v", mc, tc.wantMemo)
			}
		})
	}

	// And the file a real auditor wrote reads back as that auditor's progress.
	t.Run("written by an auditor", func(t *testing.T) {
		cpPath := filepath.Join(t.TempDir(), "checkpoint.json")
		dir := t.TempDir()
		col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := newLoopback(t, col)
		driveHTTP(t, ts, requestsFor(t, harness.MOTDApp(), 3, 7))
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		aud, err := New(Config{Dir: dir, Checkpoint: cpPath})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aud.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if last, _, probe := ProbeCheckpoint(nil, cpPath); probe != CheckpointOK || last != aud.Status().LastProcessed {
			t.Fatalf("probe = %d, %v; want %d, CheckpointOK", last, probe, aud.Status().LastProcessed)
		}
	})
}

// TestPrefetchedAdviceGradedInOrder: the prefetch workers decode advice
// ahead of the audit, but a blob that does not decode is graded where the
// in-order loop reaches it. With every epoch in the look-ahead window,
// epochs 3 and 4 both carry garbage advice; epochs 1–2 still accept, epoch 3
// is the one rejection, and epoch 4 is never graded.
func TestPrefetchedAdviceGradedInOrder(t *testing.T) {
	dir := t.TempDir()
	spec := harness.MOTDApp()
	sealLog(t, spec, dir, requestsFor(t, spec, 40, 5), 10)
	for _, seq := range []string{"3", "4"} {
		garbage := bytes.Repeat([]byte{0xff}, 64)
		if err := os.WriteFile(filepath.Join(dir, "ep00000"+seq+".advice"), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	aud, err := New(Config{Dir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := aud.RunOnce(context.Background())
	var rej *Reject
	if !errors.As(err, &rej) || rej.Epoch != 3 || rej.Code != core.RejectMalformedAdvice {
		t.Fatalf("RunOnce error = %v, want epoch 3 rejected MalformedAdvice", err)
	}
	vs := aud.Verdicts()
	if n != 2 || len(vs) != 3 || !vs[0].Accepted() || !vs[1].Accepted() || vs[2].Epoch != 3 {
		t.Fatalf("processed %d, verdicts %+v; want epochs 1-2 accepted, then epoch 3's rejection", n, vs)
	}
	if st := aud.Status(); st.LastAccepted != 2 || st.Rejected != 1 || st.PeakPrefetchEpochs != 4 {
		t.Fatalf("status %+v; want last accepted 2, one rejection, all four epochs prefetched", st)
	}
}
