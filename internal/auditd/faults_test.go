package auditd

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
)

var quietBackoff = fault.Backoff{Sleep: func(time.Duration) {}}

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
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1, After: 1}); err != nil {
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
	a, err := New(Config{Dir: dir, FS: inj, Backoff: quietBackoff})
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
		Backoff:       quietBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	reqs := requestsFor(t, harness.MOTDApp(), 30, 7)
	driveHTTP(t, ts, reqs[:10])
	if err := cinj.Arm(iofault.OpENOSPC, fault.Arm{Times: -1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	driveHTTP(t, ts, reqs[10:20])
	cinj.Heal()
	driveHTTP(t, ts, reqs[20:])
	ts.Close()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n, err := a.RunOnce(context.Background())
	if err != nil || n != 3 {
		t.Fatalf("RunOnce = %d, %v; want all 3 epochs graded without error", n, err)
	}
	vs := a.Verdicts()
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
		Backoff:       quietBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newLoopback(t, col)
	reqs := requestsFor(t, harness.MOTDApp(), 20, 7)
	driveHTTP(t, ts, reqs[:10])
	// Epoch 2 degrades, then the collector crashes with epoch 2 sealed and
	// nothing stranded.
	if err := cinj.Arm(iofault.OpENOSPC, fault.Arm{Times: -1, Target: ".advice"}); err != nil {
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

	a, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.RunOnce(context.Background()); err != nil || n != 3 {
		t.Fatalf("RunOnce = %d, %v", n, err)
	}
	vs := a.Verdicts()
	if len(vs) != 3 || !vs[0].Accepted() || vs[1].Code != core.RejectUnauditable || !vs[2].Accepted() {
		t.Fatalf("verdicts across fresh boundary: %+v", vs)
	}
}

// TestSupervisorRestartsOnInfraError: a lane incarnation dying on an
// infrastructure failure (checkpoint fsync) is rebuilt from the durable
// checkpoint and finishes the backlog with no verdict lost or flipped.
func TestSupervisorRestartsOnInfraError(t *testing.T) {
	dir := t.TempDir()
	sealEpochs(t, dir, nil, 30, 10)

	inj := iofault.NewInjector(nil)
	// Each checkpoint write fsyncs the file and then its directory, both
	// under auditd.ckpt: the second write's file fsync fails, killing the
	// first incarnation after epoch 2 was audited but before it was recorded.
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1, After: 2, Target: ".ckpt"}); err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(ShardedConfig{
		Root:          dir,
		CheckpointDir: filepath.Join(t.TempDir(), "auditd.ckpt"),
		FS:            inj,
		Backoff:       quietBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Audit(context.Background())
	if err != nil {
		t.Fatalf("supervised audit: %v", err)
	}
	rep := res.Shards[0]
	if rep.Restarts != 1 || rep.Status.LastProcessed != 3 || !res.Accepted() {
		t.Fatalf("restarts = %d, last processed %d, merge %+v; want exactly 1 rebuild draining the log", rep.Restarts, rep.Status.LastProcessed, res.Merge)
	}
	// Epoch 2's checkpoint died after its audit: the rebuilt incarnation
	// re-grades epoch 2, so it appears twice with the same verdict — the
	// determinism invariant — and the accepted set is 1,2,3.
	accepted := map[uint64]int{}
	for _, v := range rep.Verdicts {
		if !v.Accepted() {
			t.Fatalf("infra fault produced non-accept verdict: %+v", v)
		}
		accepted[v.Epoch]++
	}
	if accepted[1] != 1 || accepted[2] != 2 || accepted[3] != 1 {
		t.Fatalf("grades per epoch = %v, want 1:1 2:2 3:1", accepted)
	}
}

// TestSupervisorStopsOnHonestReject: a real rejection halts the lane
// untouched — rebuilding cannot and must not change a verdict — and ends
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
	if rep.Restarts != 0 {
		t.Fatalf("lane rebuilt %d times on an honest reject", rep.Restarts)
	}
}
