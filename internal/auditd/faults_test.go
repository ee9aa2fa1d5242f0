package auditd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
)

// sealEpochs drives n requests through a collector on cfs, sealing every
// epochRequests, and closes it cleanly.
func sealEpochs(t *testing.T, dir string, cfs iofault.FS, n, epochRequests int) {
	t.Helper()
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          harness.MOTDApp(),
		Dir:           dir,
		EpochRequests: epochRequests,
		FS:            cfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	defer ts.Close()
	driveHTTP(t, ts, requestsFor(t, harness.MOTDApp(), n, 7))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDirFsyncFailureSurfaces is the regression test for the
// checkpoint durability hole: the parent-directory fsync after the rename
// must be able to fail the write, not be swallowed.
func TestCheckpointDirFsyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	cp := checkpoint{LastAccepted: 3, LastProcessed: 3}
	path := filepath.Join(dir, "auditd.ckpt")
	if err := writeCheckpoint(inj, path, cp); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	if inj.Counts()[iofault.CallSyncDir] != 1 {
		t.Fatalf("writeCheckpoint issued %d directory fsyncs, want 1", inj.Counts()[iofault.CallSyncDir])
	}

	// File fsync passes (After:1), the directory fsync fires the fault.
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: 1, After: 1}); err != nil {
		t.Fatal(err)
	}
	err := writeCheckpoint(inj, path, checkpoint{LastAccepted: 4, LastProcessed: 4})
	if err == nil || !strings.Contains(err.Error(), "directory fsync") {
		t.Fatalf("writeCheckpoint swallowed the directory fsync failure: %v", err)
	}
}

// TestAuditorRetriesTransientReads: transient EIO on the epoch reads is
// absorbed by the retry loop and every epoch still accepts.
func TestAuditorRetriesTransientReads(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 20, 10)

	inj := iofault.NewInjector(nil)
	if err := inj.ArmSpec("transient-eio:11:3", ""); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.RunOnce(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("RunOnce through transient reads = %d, %v; want 2 accepts", n, err)
	}
	if fired := inj.Fired()[iofault.OpTransientEIO]; fired != 3 {
		t.Fatalf("fired %d transient faults, want the whole schedule consumed", fired)
	}
	st := a.Status()
	if st.Accepted != 2 || st.Rejected != 0 || st.Unauditable != 0 {
		t.Fatalf("status after retried reads: %+v", st)
	}
}

// TestCorruptCheckpointQuarantinedNotFatal: a torn checkpoint file must not
// wedge the auditor — it is quarantined and the audit restarts from zero,
// reaching the same verdicts.
func TestCorruptCheckpointQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 20, 10)
	ckpt := filepath.Join(t.TempDir(), "auditd.ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"lastAccepted": 2, "carry`), 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := New(Config{Dir: dir, Checkpoint: ckpt})
	if err != nil {
		t.Fatalf("New on corrupt checkpoint: %v", err)
	}
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not quarantined: %v", err)
	}
	n, err := a.RunOnce(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("audit from zero after quarantine = %d, %v; want both epochs", n, err)
	}
	// The rewritten checkpoint is valid again.
	a2, err := New(Config{Dir: dir, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if st := a2.Status(); st.LastProcessed != 2 {
		t.Fatalf("resumed checkpoint LastProcessed = %d, want 2", st.LastProcessed)
	}
}

// TestOldCheckpointFormatStillResumes: PR-2 checkpoints lack LastProcessed
// and Unauditable; loading one must treat LastAccepted as the cursor.
func TestOldCheckpointFormatStillResumes(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 20, 10)
	ckpt := filepath.Join(t.TempDir(), "auditd.ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"lastAccepted": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Dir: dir, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); st.LastProcessed != 1 || st.LastAccepted != 1 {
		t.Fatalf("old-format resume: %+v", st)
	}
}

// TestDegradedEpochGradesUnauditable: an epoch the collector flagged
// degraded whose audit fails is graded Unauditable — never rejected — and
// later epochs stay unauditable until a Fresh boundary re-anchors.
func TestDegradedEpochGradesUnauditable(t *testing.T) {
	dir := t.TempDir()
	// Epoch 1 seals clean. Epoch 2's advice appends are eaten by ENOSPC, so
	// it seals degraded with lost advice. Epoch 3 seals clean but follows
	// the unauditable epoch without a Fresh boundary.
	cinj := iofault.NewInjector(nil)
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          harness.MOTDApp(),
		Dir:           dir,
		EpochRequests: 10,
		FS:            cinj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	reqs := requestsFor(t, harness.MOTDApp(), 30, 7)
	driveHTTP(t, ts, reqs[:10])
	if err := cinj.Arm(iofault.OpENOSPC, iofault.Arm{Times: -1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	driveHTTP(t, ts, reqs[10:20])
	cinj.Heal()
	driveHTTP(t, ts, reqs[20:])
	ts.Close()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := Config{Dir: dir}
	verdicts := collectVerdicts(&cfg)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.RunOnce(context.Background())
	if err != nil || n != 3 {
		t.Fatalf("RunOnce = %d, %v; want all 3 epochs graded without error", n, err)
	}
	vs := *verdicts
	if len(vs) != 3 {
		t.Fatalf("verdicts = %+v", vs)
	}
	if !vs[0].Accepted() {
		t.Fatalf("clean epoch 1 not accepted: %+v", vs[0])
	}
	if vs[1].Code != core.RejectUnauditable || !strings.Contains(vs[1].Reason, "degraded") {
		t.Fatalf("degraded epoch 2 verdict: %+v", vs[1])
	}
	if vs[2].Code != core.RejectUnauditable || !strings.Contains(vs[2].Reason, "unanchored") {
		t.Fatalf("epoch 3 after unauditable carry: %+v", vs[2])
	}
	st := a.Status()
	if st.Rejected != 0 {
		t.Fatalf("infrastructure fault produced a rejection: %+v", st)
	}
	if st.LastAccepted != 1 || st.LastProcessed != 3 || st.Unauditable != 2 {
		t.Fatalf("status: %+v", st)
	}
}

// TestOversizedAdviceAtSealGradesUnauditable: when the epoch's encoded
// advice is larger than the collector's Limits.MaxAdviceBytes, the seal
// still completes with the epoch flagged degraded and its trace intact, and
// the auditor grades the epoch Unauditable — never rejected.
func TestOversizedAdviceAtSealGradesUnauditable(t *testing.T) {
	dir := t.TempDir()
	limits := verifier.Limits{MaxAdviceBytes: 64}
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          harness.MOTDApp(),
		Dir:           dir,
		EpochRequests: 10,
		Limits:        limits,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	driveHTTP(t, ts, requestsFor(t, harness.MOTDApp(), 10, 7))
	ts.Close()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	tr, blob, m, err := epochlog.ReadSealed(dir, 1, epochlog.Options{MaxAdviceBytes: limits.MaxAdviceBytes})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Degraded, "advice lost at seal") || len(blob) != 0 {
		t.Fatalf("epoch 1: degraded %q with %d advice bytes, want advice lost at seal", m.Degraded, len(blob))
	}
	if err := tr.CheckBalanced(); err != nil || len(tr.Events) != 20 {
		t.Fatalf("epoch 1 trace: %d events, %v; want 10 balanced REQ/RESP pairs", len(tr.Events), err)
	}

	cfg := Config{Dir: dir, Limits: limits}
	verdicts := collectVerdicts(&cfg)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.RunOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("RunOnce = %d, %v", n, err)
	}
	if vs := *verdicts; len(vs) != 1 || vs[0].Code != core.RejectUnauditable {
		t.Fatalf("verdicts %+v, want epoch 1 Unauditable", vs)
	}
	if st := a.Status(); st.Rejected != 0 || st.Unauditable != 1 {
		t.Fatalf("status: %+v", st)
	}
}

// openRecorder is an iofault.FS that records, in order, the base name of
// every file opened through it.
type openRecorder struct {
	iofault.FS
	mu    sync.Mutex
	names []string
}

func (r *openRecorder) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	r.mu.Lock()
	r.names = append(r.names, filepath.Base(name))
	r.mu.Unlock()
	return r.FS.OpenFile(name, flag, perm)
}

// requireAllAccept audits dir once and fails unless it grades exactly want
// epochs, every one accepted.
func requireAllAccept(t *testing.T, dir string, want int) {
	t.Helper()
	cfg := Config{Dir: dir}
	verdicts := collectVerdicts(&cfg)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.RunOnce(context.Background()); err != nil || n != want {
		t.Fatalf("RunOnce = %d, %v; want %d epochs graded", n, err, want)
	}
	for _, v := range *verdicts {
		if !v.Accepted() {
			t.Fatalf("honest epoch not accepted: %+v", v)
		}
	}
}

// TestTornAdviceWriteAccepts: a short write tears the first advice record
// a seal writes. The retried write starts the file over instead of
// appending behind the tear, so every honest epoch accepts. Through the
// same injector: no advice file is opened before its epoch's seal has cut
// it (opened the next epoch's trace), and every sealed epoch opens one.
func TestTornAdviceWriteAccepts(t *testing.T) {
	dir := t.TempDir()
	rec := &openRecorder{FS: iofault.OS}
	inj := iofault.NewInjector(rec)
	if err := inj.Arm(iofault.OpShortWrite, iofault.Arm{Times: 1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	sealEpochs(t, dir, inj, 20, 10)
	if fired := inj.Fired()[iofault.OpShortWrite]; fired != 1 {
		t.Fatalf("short write fired %d times, want 1", fired)
	}
	requireAllAccept(t, dir, 2)

	first := map[string]int{}
	for i, name := range rec.names {
		if _, ok := first[name]; !ok {
			first[name] = i
		}
	}
	for seq := 1; seq <= 2; seq++ {
		adv, ok := first[fmt.Sprintf("ep%06d.advice", seq)]
		if !ok {
			t.Fatalf("sealed epoch %d opened no advice file (opens %v)", seq, rec.names)
		}
		if cut, ok := first[fmt.Sprintf("ep%06d.trace", seq+1)]; !ok || adv < cut {
			t.Fatalf("epoch %d's advice file opened before its cut (opens %v)", seq, rec.names)
		}
	}
}

// TestFailedRotationConsumesNoAdvice: a transient EIO on the next epoch's
// trace file fails a /seal's rotation before the runtime's advice is
// drained, so the epoch stays active with all of it. The seal that finally
// cuts the epoch covers every request, and the epoch accepts.
func TestFailedRotationConsumesNoAdvice(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	reqs := requestsFor(t, harness.MOTDApp(), 20, 7)
	driveHTTP(t, ts, reqs[:10])
	if err := inj.Arm(iofault.OpTransientEIO, iofault.Arm{Times: 1, Target: "ep000002.trace"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/seal through a failed rotation: status %d, want 500", resp.StatusCode)
	}
	driveHTTP(t, ts, reqs[10:])
	ts.Close()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	requireAllAccept(t, dir, 1)
}

// TestFreshBoundaryReanchorsAfterUnauditable: a collector restart (Fresh
// manifest) after an unauditable stretch lets the auditor grade again.
func TestFreshBoundaryReanchorsAfterUnauditable(t *testing.T) {
	dir := t.TempDir()
	cinj := iofault.NewInjector(nil)
	col, err := collectorhttp.New(collectorhttp.Config{
		Spec:          harness.MOTDApp(),
		Dir:           dir,
		EpochRequests: 10,
		FS:            cinj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	reqs := requestsFor(t, harness.MOTDApp(), 20, 7)
	driveHTTP(t, ts, reqs[:10])
	// Epoch 2 degrades, then the collector crashes with epoch 2 sealed and
	// nothing stranded.
	if err := cinj.Arm(iofault.OpENOSPC, iofault.Arm{Times: -1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	driveHTTP(t, ts, reqs[10:20])
	ts.Close()
	if err := col.Crash(); err != nil {
		t.Fatal(err)
	}

	// Restart: epoch 3 begins Fresh and seals clean.
	col2, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newLoopback(t, col2)
	driveHTTP(t, ts2, requestsFor(t, harness.MOTDApp(), 10, 8))
	ts2.Close()
	if err := col2.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := Config{Dir: dir}
	verdicts := collectVerdicts(&cfg)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.RunOnce(context.Background()); err != nil || n != 3 {
		t.Fatalf("RunOnce = %d, %v", n, err)
	}
	vs := *verdicts
	if len(vs) != 3 || !vs[0].Accepted() || vs[1].Code != core.RejectUnauditable || !vs[2].Accepted() {
		t.Fatalf("verdicts across fresh boundary: %+v", vs)
	}
}

// TestRecoveredOversizedAdviceGradesUnauditable: a crash between Rotate
// and FinishSeals orphans an epoch whose advice record is larger than
// MaxAdviceBytes. Recovery seals it Degraded and the auditor grades it
// Unauditable — an oversized record on the untrusted channel is never an
// accusation when the collector could not finish the seal.
func TestRecoveredOversizedAdviceGradesUnauditable(t *testing.T) {
	src := t.TempDir()
	sealLog(t, harness.MOTDApp(), src, requestsFor(t, harness.MOTDApp(), 6, 7), 0)
	tr, blob, _, err := epochlog.ReadSealed(src, 1, epochlog.Options{})
	if err != nil || len(blob) == 0 {
		t.Fatalf("source epoch: %d advice bytes, %v", len(blob), err)
	}
	dir := t.TempDir()
	meta, err := os.ReadFile(filepath.Join(src, collectorhttp.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, collectorhttp.MetaFile), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := epochlog.Open(dir, epochlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := l.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendAdvice(blob); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Rotate(); err != nil || seq == 0 {
		t.Fatalf("rotate: %v", err)
	}
	next := trace.Event{Kind: trace.Req, RID: "r99", Data: tr.Events[0].Data}
	if err := l.AppendEventAsync(next).Wait(); err != nil {
		t.Fatal(err)
	}
	l.Close() // crash: epoch 1 rotated out, its seal never finished

	limits := verifier.Limits{MaxAdviceBytes: len(blob) - 1}
	l2, err := epochlog.Open(dir, epochlog.Options{MaxAdviceBytes: limits.MaxAdviceBytes})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	sealed := l2.Sealed()
	l2.Close()
	if len(sealed) != 1 || sealed[0].Degraded == "" {
		t.Fatalf("recovered manifests %+v, want epoch 1 sealed degraded", sealed)
	}
	t.Logf("recovered epoch 1 records %d advice bytes (record %d, limit %d)", sealed[0].AdviceBytes, len(blob), limits.MaxAdviceBytes)

	cfg := Config{Dir: dir, Limits: limits}
	verdicts := collectVerdicts(&cfg)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.RunOnce(context.Background()); err != nil || n != 1 {
		t.Fatalf("RunOnce = %d, %v", n, err)
	}
	vs := *verdicts
	if len(vs) != 1 || vs[0].Code != core.RejectUnauditable {
		t.Fatalf("verdicts %+v, want epoch 1 Unauditable", vs)
	}
	t.Logf("epoch 1: %s", vs[0].Reason)
}

// TestLaneResumesAfterInfraError: a pass that fails on an infrastructure
// fault (one checkpoint fsync) returns the error and keeps its auditor, so
// the next pass resumes where grading stopped. Every epoch is graded once,
// and the lane reports what a fault-free audit of the same log reports.
func TestLaneResumesAfterInfraError(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 30, 10)
	clean, err := NewSharded(ShardedConfig{Root: dir, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	inj := iofault.NewInjector(nil)
	// Each checkpoint write fsyncs the file and then its directory, both
	// under auditd.ckpt: the second write's file fsync fails, after epoch 2
	// was graded but before it was recorded.
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: 1, After: 2, Target: ".ckpt"}); err != nil {
		t.Fatal(err)
	}
	ckdir := filepath.Join(t.TempDir(), "auditd.ckpt")
	sh, err := NewSharded(ShardedConfig{Root: dir, CheckpointDir: ckdir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Audit(context.Background()); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("first pass: %v, want the checkpoint fsync failure", err)
	}
	res, err := sh.Audit(context.Background())
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	rep := res.Shards[0]
	graded := map[uint64]int{}
	for _, v := range rep.Verdicts {
		if !v.Accepted() {
			t.Fatalf("infra fault produced non-accept verdict: %+v", v)
		}
		graded[v.Epoch]++
	}
	if len(graded) != 3 || graded[1] != 1 || graded[2] != 1 || graded[3] != 1 {
		t.Fatalf("grades per epoch = %v, want each of 1, 2, 3 once", graded)
	}
	if last, _, probe := ProbeCheckpoint(nil, CheckpointPath(ckdir, 0)); probe != CheckpointOK || last != 3 {
		t.Fatalf("durable checkpoint = %d (%v), want 3", last, probe)
	}
	w := want.Shards[0].Status
	if !res.Accepted() || rep.Status.Accepted != w.Accepted || rep.Status.LastProcessed != w.LastProcessed || res.Stats != want.Stats {
		t.Fatalf("after the fault: accepted %d through %d, %+v; fault-free: accepted %d through %d, %+v",
			rep.Status.Accepted, rep.Status.LastProcessed, res.Stats, w.Accepted, w.LastProcessed, want.Stats)
	}
}

// TestLaneReturnsInternalFault: an InternalFault is the auditor's own
// failure, not a verdict on the server. The pass returns it as an error and
// the lane does not halt; since the verdict is a deterministic function of
// the evidence, the next pass returns the same error. The fault here is a
// checkpointed carry naming a variable the application does not have.
func TestLaneReturnsInternalFault(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 20, 10)
	ckdir := t.TempDir()
	bad := []byte(`{"lastAccepted": 1, "carry": {"vars": {"no-such-variable": 1}, "store": {}}}`)
	if err := os.WriteFile(CheckpointPath(ckdir, 0), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(ShardedConfig{Root: dir, CheckpointDir: ckdir})
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for pass := 1; pass <= 2; pass++ {
		n, err := sh.RunOnce(context.Background())
		var rej *Reject
		if !errors.As(err, &rej) || rej.Code != core.RejectInternalFault || rej.Epoch != 2 || n != 0 {
			t.Fatalf("pass %d = %d, %v; want epoch 2's InternalFault", pass, n, err)
		}
		if pass == 1 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("pass 2 failed differently:\n  %s\n  %s", first, err)
		}
		if sh.lanes[0].haltedNow() != nil {
			t.Fatalf("pass %d halted the lane on the auditor's own fault", pass)
		}
	}
	rep := sh.Result().Shards[0]
	for _, v := range rep.Verdicts {
		if v.Accepted() {
			t.Fatalf("epoch %d graded accepted past an InternalFault", v.Epoch)
		}
		if v.Code == core.RejectInternalFault {
			t.Fatalf("the auditor's own fault recorded as a verdict: %+v", v)
		}
	}
	if rep.Status.Rejected != 0 {
		t.Fatalf("the auditor's own fault counted as %d rejections", rep.Status.Rejected)
	}
	if rep.Code != "" || rep.Status.Accepted != 0 || rep.Status.LastProcessed != 1 {
		t.Fatalf("lane %+v, want no verdict of its own and the cursor on epoch 1", rep)
	}
}

// TestSupervisorStopsOnHonestReject: a real rejection halts the lane
// untouched — re-running cannot and must not change a verdict — and ends
// the follow loop, so `audit -follow` on a single log exits at the first
// rejection.
func TestSupervisorStopsOnHonestReject(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 10, 10)
	// Corrupt the advice after sealing: a malformed blob on a non-degraded
	// epoch is an honest reject.
	matches, err := filepath.Glob(filepath.Join(dir, "*.advice"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no advice files: %v %v", matches, err)
	}
	if err := os.WriteFile(matches[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	sh, err := NewSharded(ShardedConfig{Root: dir, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.Run(ctx); err != nil || ctx.Err() != nil {
		t.Fatalf("follow = %v (ctx %v), want a prompt nil once the only lane halted", err, ctx.Err())
	}
	// The verdict is sticky: another pass grades nothing and changes nothing.
	if n, err := sh.RunOnce(ctx); n != 0 || err != nil {
		t.Fatalf("pass over a halted lane = %d, %v", n, err)
	}
	res := sh.Result()
	rep := res.Shards[0]
	if rep.Code != core.RejectMalformedAdvice || res.Merge.Code != core.RejectMalformedAdvice || rep.Status.Rejected != 1 {
		t.Fatalf("lane %+v, merge %+v; want the MalformedAdvice rejection", rep, res.Merge)
	}
}

// TestDeadCheckpointDisk: when every checkpoint fsync fails, each pass
// grades one epoch, returns the fsync error and leaves the durable cursor
// where it was. A failure outside the verifier never turns a verdict into
// anything but an accept.
func TestDeadCheckpointDisk(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 30, 10)

	inj := iofault.NewInjector(nil)
	ckdir := filepath.Join(t.TempDir(), "auditd.ckpt")
	sh, err := NewSharded(ShardedConfig{Root: dir, CheckpointDir: ckdir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: -1, Target: ".ckpt"}); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 3; pass++ {
		n, err := sh.RunOnce(context.Background())
		var fe *iofault.FaultError
		if !errors.As(err, &fe) || fe.Op != iofault.OpFsyncFail {
			t.Fatalf("pass %d: %v, want the checkpoint fsync failure", pass, err)
		}
		if n != 1 {
			t.Fatalf("pass %d graded one epoch but counted %d", pass, n)
		}
		rep := sh.Result().Shards[0]
		if len(rep.Verdicts) != pass || rep.Status.LastProcessed != uint64(pass) {
			t.Fatalf("pass %d: %d verdicts through epoch %d, want one more epoch graded", pass, len(rep.Verdicts), rep.Status.LastProcessed)
		}
		for _, v := range rep.Verdicts {
			if !v.Accepted() {
				t.Fatalf("infra fault produced non-accept verdict: %+v", v)
			}
		}
	}
	if _, _, probe := ProbeCheckpoint(nil, CheckpointPath(ckdir, 0)); probe != CheckpointMissing {
		t.Fatalf("a checkpoint became durable on a dead disk: %v", probe)
	}
}
