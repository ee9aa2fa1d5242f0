package epochlog

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
)

// fillOpen appends n request/response pairs plus one advice blob without
// sealing, leaving the epoch open for fault-injected Seal attempts.
func fillOpen(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rid := fmt.Sprintf("f%d-r%d", l.ActiveSeq(), i)
		if err := l.AppendEvent(ev(trace.Req, rid, i)); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendEvent(ev(trace.Resp, rid, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendAdvice([]byte("advice-blob")); err != nil {
		t.Fatal(err)
	}
}

// TestSealDataFsyncFailureLeavesNoManifest: the manifest must not exist
// unless the data files are durable. An injected fsync failure on a data
// file aborts the seal before the manifest is created, the log stays
// appendable, and the retried seal succeeds.
func TestSealDataFsyncFailureLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillOpen(t, l, 2)

	// First Sync in Seal is the trace file: the trusted channel's fsync
	// fails, so the epoch must not appear sealed.
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Seal(); err == nil {
		t.Fatal("seal succeeded through a failed data fsync")
	}
	if _, statErr := os.Stat(manifestPath(dir, 1)); !os.IsNotExist(statErr) {
		t.Fatalf("manifest exists after failed data fsync (stat err %v)", statErr)
	}

	// The failed seal must leave the log usable: appends and a retried
	// seal both work.
	if err := l.AppendEvent(ev(trace.Req, "rz", 9)); err != nil {
		t.Fatalf("append after failed seal: %v", err)
	}
	if err := l.AppendEvent(ev(trace.Resp, "rz", 9)); err != nil {
		t.Fatal(err)
	}
	m, err := l.Seal()
	if err != nil || m == nil {
		t.Fatalf("retried seal: %v (manifest %v)", err, m)
	}
	if m.Events != 6 {
		t.Fatalf("retried seal recorded %d events, want 6", m.Events)
	}
	tr, blob, _, err := ReadSealed(dir, 1, Options{})
	if err != nil || len(tr.Events) != 6 || string(blob) != "advice-blob" {
		t.Fatalf("sealed epoch after retry: %d events, advice %q, err %v", len(tr.Events), blob, err)
	}
}

// TestSealManifestFsyncFailureRemovesManifest: when the manifest itself
// fails to fsync, the half-written manifest must be removed — its presence
// would seal an epoch whose seal never completed — while the data files
// survive untouched.
func TestSealManifestFsyncFailureRemovesManifest(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillOpen(t, l, 2)

	// Seal fsyncs trace, advice, then the manifest: skip the two data
	// syncs so the fault lands exactly on the manifest's.
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1, After: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Seal(); err == nil || !strings.Contains(err.Error(), "manifest fsync") {
		t.Fatalf("seal error = %v, want manifest fsync failure", err)
	}
	if _, statErr := os.Stat(manifestPath(dir, 1)); !os.IsNotExist(statErr) {
		t.Fatalf("manifest survived its failed fsync (stat err %v)", statErr)
	}
	sealed, err := ListSealed(dir)
	if err != nil || len(sealed) != 0 {
		t.Fatalf("ListSealed = %v, %v; want none", sealed, err)
	}

	// Retry with the fault consumed: the same epoch seals with the same
	// contents.
	m, err := l.Seal()
	if err != nil || m == nil || m.Seq != 1 || m.Events != 4 {
		t.Fatalf("retried seal = %+v, %v", m, err)
	}
}

// TestSealDirFsyncFailureAbortsSeal: a directory fsync failure aborts the
// seal too — otherwise the manifest's directory entry could vanish on
// power loss while later epochs accumulate beyond the gap.
func TestSealDirFsyncFailureAbortsSeal(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillOpen(t, l, 1)

	// Syncs in Seal: trace, advice, manifest file, then the directory.
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1, After: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Seal(); err == nil || !strings.Contains(err.Error(), "directory fsync") {
		t.Fatalf("seal error = %v, want directory fsync failure", err)
	}
	if _, statErr := os.Stat(manifestPath(dir, 1)); !os.IsNotExist(statErr) {
		t.Fatal("manifest survived a failed directory fsync")
	}
	if m, err := l.Seal(); err != nil || m == nil {
		t.Fatalf("retried seal = %v, %v", m, err)
	}
}

// TestReopenAfterFailedSealRecovers: crash (Close without seal) after a
// failed seal — recovery must adopt the intact data files as the active
// epoch and seal them to the same digest a clean run would have produced.
func TestReopenAfterFailedSealRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	fillOpen(t, l, 3)
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1, After: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Seal(); err == nil {
		t.Fatal("seal should have failed on the manifest fsync")
	}
	l.Close() // crash: no seal

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after failed seal: %v", err)
	}
	defer l2.Close()
	if events, reqs := l2.ActiveEvents(); events != 6 || reqs != 3 {
		t.Fatalf("recovered %d events / %d requests, want 6/3", events, reqs)
	}
	m, err := l2.Seal()
	if err != nil || m == nil || m.Seq != 1 {
		t.Fatalf("seal after recovery = %+v, %v", m, err)
	}
	if tr, _, _, err := ReadSealed(dir, 1, Options{}); err != nil || len(tr.Events) != 6 {
		t.Fatalf("sealed read after recovery: %v", err)
	}
}

// TestOpenRenameFailureFailsLoudlyAndPreservesStrays: when quarantining a
// stray fails, Open must error out rather than proceed — and the stray
// bytes must still be on disk afterwards.
func TestOpenRenameFailureFailsLoudlyAndPreservesStrays(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillOpen(t, l, 1)
	if _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A stray data file beyond the active epoch, as a crashed future seal
	// would leave.
	stray := tracePath(dir, 5)
	if err := os.WriteFile(stray, []byte("stray-evidence"), 0o644); err != nil {
		t.Fatal(err)
	}

	inj := iofault.NewInjector(nil)
	if err := inj.Arm(iofault.OpRenameFail, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{FS: inj}); err == nil {
		t.Fatal("Open succeeded through a failed quarantine rename")
	}
	if data, err := os.ReadFile(stray); err != nil || string(data) != "stray-evidence" {
		t.Fatalf("stray mutated by failed Open: %q, %v", data, err)
	}

	// Fault consumed: reopening quarantines the stray (renamed, not
	// deleted) and resumes.
	l2, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatalf("reopen after fault healed: %v", err)
	}
	defer l2.Close()
	if data, err := os.ReadFile(stray + quarantineSuffix); err != nil || string(data) != "stray-evidence" {
		t.Fatalf("quarantined stray = %q, %v", data, err)
	}
}

// TestDegradedFlagRoundTrips: MarkDegraded lands in the manifest, clears
// for the next epoch, and the first reason wins.
func TestDegradedFlagRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillOpen(t, l, 1)
	l.MarkDegraded("advice outage")
	l.MarkDegraded("second reason must not clobber")
	m, err := l.Seal()
	if err != nil || m.Degraded != "advice outage" {
		t.Fatalf("sealed degraded = %+v, %v", m, err)
	}
	fillOpen(t, l, 1)
	m2, err := l.Seal()
	if err != nil || m2.Degraded != "" {
		t.Fatalf("next epoch inherited degradation: %+v, %v", m2, err)
	}
	sealed, err := ListSealed(dir)
	if err != nil || len(sealed) != 2 || sealed[0].Degraded == "" || sealed[1].Degraded != "" {
		t.Fatalf("ListSealed degraded flags = %+v, %v", sealed, err)
	}
}

// TestShortWriteOnAppendIsRecoverable: a torn trace append surfaces as an
// error, and reopening truncates the torn tail so the epoch digest stays
// recomputable.
func TestShortWriteOnAppendIsRecoverable(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l, err := Open(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	fillOpen(t, l, 2)
	if err := inj.Arm(iofault.OpShortWrite, fault.Arm{Times: 1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	err = l.AppendEvent(ev(trace.Req, "rt", 9))
	if err == nil {
		t.Fatal("torn append reported success")
	}
	l.Close() // crash before any repair

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer l2.Close()
	if events, _ := l2.ActiveEvents(); events != 4 {
		t.Fatalf("recovered %d events, want the 4 intact ones", events)
	}
	if m, err := l2.Seal(); err != nil || m.Events != 4 {
		t.Fatalf("seal after torn-tail recovery = %+v, %v", m, err)
	}
}
