package epochlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/leakcheck"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

// TestMain fails the package when one of its goroutines outlives the tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func ev(kind trace.Kind, rid string, i int) trace.Event {
	return trace.Event{Kind: kind, RID: rid, Data: value.Map("i", float64(i))}
}

// fillEpoch appends n request/response pairs and an advice blob, then seals.
func fillEpoch(t *testing.T, l *Log, n int, blob []byte) *Manifest {
	t.Helper()
	events, _ := l.ActiveEvents()
	for i := 0; i < n; i++ {
		rid := fmt.Sprintf("e%d-r%d", l.ActiveSeq(), events/2+i)
		if err := l.AppendEvent(ev(trace.Req, rid, i)); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendEvent(ev(trace.Resp, rid, i)); err != nil {
			t.Fatal(err)
		}
	}
	if blob != nil {
		if err := l.AppendAdvice(blob); err != nil {
			t.Fatal(err)
		}
	}
	m, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("seal of non-empty epoch returned nil manifest")
	}
	return m
}

func TestSealReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := fillEpoch(t, l, 3, []byte("first-blob"))
	m2 := fillEpoch(t, l, 2, []byte("second-blob"))
	if m1.Seq != 1 || m2.Seq != 2 {
		t.Fatalf("unexpected seqs %d, %d", m1.Seq, m2.Seq)
	}
	if m1.Events != 6 || m1.Requests != 3 {
		t.Fatalf("manifest 1 counts wrong: %+v", m1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 2 {
		t.Fatalf("ListSealed = %d epochs, want 2", len(sealed))
	}
	tr, blob, m, err := ReadSealed(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 6 || string(blob) != "first-blob" {
		t.Fatalf("epoch 1 contents wrong: %d events, blob %q", len(tr.Events), blob)
	}
	// The manifest digest is the trace's digest, recomputable independently.
	if tr.Digest() != m.TraceDigest {
		t.Error("manifest digest does not match recomputed trace digest")
	}
	if err := tr.CheckBalanced(); err != nil {
		t.Errorf("sealed trace unbalanced: %v", err)
	}
}

func TestAdviceLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvent(ev(trace.Req, "r1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvent(ev(trace.Resp, "r1", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.AppendAdvice([]byte(fmt.Sprintf("upload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, blob, _, err := ReadSealed(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != "upload-2" {
		t.Fatalf("winning blob = %q, want upload-2", blob)
	}
}

func TestAdviceByteLimit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxAdviceBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendAdvice(bytes.Repeat([]byte("x"), 9)); err == nil {
		t.Error("over-limit advice accepted on append")
	}
	if err := l.AppendAdvice([]byte("ok")); err != nil {
		t.Errorf("in-limit advice rejected: %v", err)
	}
}

func TestEmptySealIsNoop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m, err := l.Seal()
	if err != nil || m != nil {
		t.Fatalf("empty seal: m=%v err=%v", m, err)
	}
	if l.ActiveSeq() != 1 {
		t.Errorf("empty seal advanced the epoch to %d", l.ActiveSeq())
	}
}

func TestReopenResumesActiveEpoch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillEpoch(t, l, 2, []byte("blob"))
	// Leave a partial active epoch behind.
	if err := l.AppendEvent(ev(trace.Req, "partial", 0)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l2.Sealed()); got != 1 {
		t.Fatalf("reopened sealed count = %d, want 1", got)
	}
	if events, reqs := l2.ActiveEvents(); events != 1 || reqs != 1 {
		t.Fatalf("recovered active epoch has %d events (%d reqs), want 1/1", events, reqs)
	}
	// The epoch must still seal correctly after recovery.
	if err := l2.AppendEvent(ev(trace.Resp, "partial", 0)); err != nil {
		t.Fatal(err)
	}
	m, err := l2.Seal()
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	tr, _, _, err := ReadSealed(dir, m.Seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckBalanced(); err != nil {
		t.Errorf("post-recovery sealed trace unbalanced: %v", err)
	}
}

// TestCloseKeepsPendingAdvice: an epoch rotated out but not yet sealed when
// the log closes keeps its in-memory advice record — the next Open seals it
// with that record, not without one.
func TestCloseKeepsPendingAdvice(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []trace.Event{ev(trace.Req, "r1", 1), ev(trace.Resp, "r1", 1)} {
		if err := l.AppendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	rec := []byte("0123456789")
	if err := l.AppendAdvice(rec); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Rotate(); err != nil || seq != 1 {
		t.Fatalf("rotate = %d, %v", seq, err)
	}
	if err := l.AppendEvent(ev(trace.Req, "r2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, blob, m, err := ReadSealed(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.AdviceBytes != len(rec) || !bytes.Equal(blob, rec) {
		t.Fatalf("recovered epoch 1: AdviceBytes %d, record %q; want %d and %q", m.AdviceBytes, blob, len(rec), rec)
	}
}

// TestManifestLastRIDAndFresh: the manifest records the epoch's last REQ
// rid and a durable fresh mark; both survive a crash-reopen before the
// seal, and the fresh mark does not leak into the following epoch.
func TestManifestLastRIDAndFresh(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MarkFresh(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvent(ev(trace.Req, "r00000007", 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvent(ev(trace.Resp, "r00000007", 0)); err != nil {
		t.Fatal(err)
	}
	if got := l.ActiveLastRID(); got != "r00000007" {
		t.Fatalf("ActiveLastRID = %q", got)
	}
	// Crash before the seal: the reopened log must still know the epoch is
	// fresh (the mark is durable, not in-memory) and what its last rid was.
	l.Close()
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ActiveLastRID(); got != "r00000007" {
		t.Fatalf("recovered ActiveLastRID = %q", got)
	}
	m1, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Fresh || m1.LastRID != "r00000007" {
		t.Fatalf("sealed manifest = %+v, want Fresh with LastRID r00000007", m1)
	}
	m2 := fillEpoch(t, l, 1, nil)
	if m2.Fresh {
		t.Fatal("fresh mark leaked into the next epoch")
	}
	l.Close()
}

// TestOpenRefusesGapBeyondSealed: a corrupted manifest in the middle of
// otherwise intact history must fail Open loudly, not silently destroy the
// validly sealed epochs beyond the gap.
func TestOpenRefusesGapBeyondSealed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillEpoch(t, l, 1, []byte("one"))
	fillEpoch(t, l, 1, []byte("two"))
	fillEpoch(t, l, 1, []byte("three"))
	l.Close()

	// Corrupt epoch 2's manifest: epochs 1 and 3 remain validly sealed.
	if err := os.WriteFile(filepath.Join(dir, "ep000002.manifest"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open adopted a gapped log instead of failing")
	}
	// Epoch 3 must be untouched and still independently verifiable.
	if _, err := os.Stat(filepath.Join(dir, "ep000003.manifest")); err != nil {
		t.Fatalf("epoch 3 manifest gone after failed Open: %v", err)
	}
	tr, blob, m, err := ReadSealed(dir, 3, Options{})
	if err != nil {
		t.Fatalf("epoch 3 unreadable after failed Open: %v", err)
	}
	if tr.Digest() != m.TraceDigest || string(blob) != "three" {
		t.Fatal("epoch 3 contents changed after failed Open")
	}
}

// TestRecoveryQuarantinesInsteadOfDeleting: stray files beyond the active
// epoch and a torn manifest at it are renamed aside, not removed — the
// bytes stay on disk for post-mortem inspection.
func TestRecoveryQuarantinesInsteadOfDeleting(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillEpoch(t, l, 1, nil)
	l.Close()

	// A torn manifest at the next epoch plus a stray data file beyond it.
	torn := []byte("torn-manifest-bytes")
	if err := os.WriteFile(filepath.Join(dir, "ep000002.manifest"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := []byte("stray-trace-bytes")
	if err := os.WriteFile(filepath.Join(dir, "ep000005.trace"), stray, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := len(l.Sealed()); got != 1 {
		t.Fatalf("sealed = %d, want 1", got)
	}
	for name, want := range map[string][]byte{
		"ep000002.manifest.quarantined": torn,
		"ep000005.trace.quarantined":    stray,
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("quarantined file missing: %v", err)
		} else if !bytes.Equal(data, want) {
			t.Errorf("%s contents changed", name)
		}
	}
	// The log still seals epoch 2 normally after quarantining the torn
	// manifest.
	if m := fillEpoch(t, l, 1, nil); m.Seq != 2 {
		t.Fatalf("sealed seq = %d, want 2", m.Seq)
	}
}

// TestCrashRecoveryProperty kills writes at arbitrary byte offsets of the
// active epoch's trace file (plus faultinject's byte operators over it)
// and asserts the log reopens to the last sealed epoch with no panic.
func TestCrashRecoveryProperty(t *testing.T) {
	// Build a reference log: two sealed epochs plus a partial third.
	ref := t.TempDir()
	l, err := Open(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillEpoch(t, l, 3, []byte("epoch-1-advice"))
	fillEpoch(t, l, 2, []byte("epoch-2-advice"))
	for i := 0; i < 2; i++ {
		rid := fmt.Sprintf("p%d", i)
		if err := l.AppendEvent(ev(trace.Req, rid, i)); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendEvent(ev(trace.Resp, rid, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendAdvice([]byte("partial-advice")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	check := func(t *testing.T, dir string, wantSealed int) {
		t.Helper()
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen failed: %v", err)
		}
		sealed := l2.Sealed()
		if len(sealed) != wantSealed {
			t.Fatalf("recovered %d sealed epochs, want %d", len(sealed), wantSealed)
		}
		// Sealed epochs must read back intact, and the log must keep working.
		for _, m := range sealed {
			tr, _, _, err := ReadSealed(dir, m.Seq, Options{})
			if err != nil {
				t.Fatalf("sealed epoch %d unreadable after recovery: %v", m.Seq, err)
			}
			if tr.Digest() != m.TraceDigest {
				t.Fatalf("sealed epoch %d digest changed", m.Seq)
			}
		}
		if err := l2.AppendEvent(ev(trace.Req, "post-recovery", 0)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l2.Close()
	}

	copyDir := func(t *testing.T) string {
		t.Helper()
		dst := t.TempDir()
		ents, err := os.ReadDir(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			data, err := os.ReadFile(filepath.Join(ref, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}

	// Torn writes: truncate the active epoch's trace file at every byte
	// offset. An active epoch has no advice file: its record is written
	// only at seal.
	for _, name := range []string{"ep000003.trace"} {
		data, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off <= len(data); off += 3 {
			dir := copyDir(t)
			if err := os.Truncate(filepath.Join(dir, name), int64(off)); err != nil {
				t.Fatal(err)
			}
			check(t, dir, 2)
		}
	}

	// Byte-operator corruption of the active epoch's tail (truncate,
	// bit-flip, splice, length-inflate — the faultinject catalogue's byte
	// kinds model exactly the torn/corrupt-write classes).
	var byteOps []faultinject.Op
	for _, op := range faultinject.Catalogue() {
		if op.Kind == faultinject.KindBytes {
			byteOps = append(byteOps, op)
		}
	}
	if len(byteOps) == 0 {
		t.Fatal("no byte operators in the faultinject catalogue")
	}
	for _, op := range byteOps {
		for seed := int64(0); seed < 25; seed++ {
			for _, name := range []string{"ep000003.trace"} {
				dir := copyDir(t)
				path := filepath.Join(dir, name)
				wire, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				mutated, err := op.Apply(seed, wire)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, mutated, 0o644); err != nil {
					t.Fatal(err)
				}
				check(t, dir, 2)
			}
		}
	}

	// Killing the seal itself: a torn manifest unseals its epoch, leaving
	// exactly the state a crash between Rotate and FinishSeals leaves —
	// durable data for epoch 2, a successor epoch already bearing frames.
	// Recovery reseals epoch 2 from its data (flagged degraded: the torn
	// manifest means its seal never finished cleanly) and keeps epoch 3's
	// frames as the active epoch instead of quarantining good evidence.
	for off := 0; off <= 20; off += 2 {
		dir := copyDir(t)
		mp := filepath.Join(dir, "ep000002.manifest")
		info, err := os.Stat(mp)
		if err != nil {
			t.Fatal(err)
		}
		if int64(off) > info.Size() {
			break
		}
		if err := os.Truncate(mp, int64(off)); err != nil {
			t.Fatal(err)
		}
		check(t, dir, 2)
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m := l2.Sealed()[1]; m.Degraded == "" {
			t.Fatalf("recovery-sealed epoch 2 not flagged degraded: %+v", m)
		}
		l2.Close()
	}
}
