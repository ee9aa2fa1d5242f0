package epochlog

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
)

func openGroup(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestGroupCommitConcurrentAppendsSealIntact(t *testing.T) {
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rid := fmt.Sprintf("r%04d", i)
			if err := l.AppendEventAsync(ev(trace.Req, rid, i)).Wait(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = l.AppendEventAsync(ev(trace.Resp, rid, i)).Wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	m, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != 2*n || m.Requests != n {
		t.Fatalf("manifest counts %d/%d, want %d/%d", m.Events, m.Requests, 2*n, n)
	}
	if m.TraceBytes == 0 {
		t.Fatal("sealed manifest carries no TraceBytes")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := ReadSealed(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2*n {
		t.Fatalf("sealed trace has %d events, want %d", len(tr.Events), 2*n)
	}
}

// TestGroupCommitAmortisesFsyncs pins the group-commit bargain as a count:
// 32 concurrent appenders, each waiting for durability before its next
// event (the collector's discipline), on a disk whose trace writes and
// fsyncs are slow enough that waiters pile up behind every batch. One
// fsync per event would be 128; group commit must need at most a quarter
// as many.
func TestGroupCommitAmortisesFsyncs(t *testing.T) {
	const waiters, perWaiter = 32, 4
	inj := iofault.NewInjector(nil)
	l := openGroup(t, t.TempDir(), Options{FS: inj})
	defer l.Close()
	if err := inj.Arm(iofault.OpLatency, iofault.Arm{Times: -1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	before := inj.Counts()[iofault.CallSync]
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWaiter && errs[g] == nil; i++ {
				errs[g] = l.AppendEventAsync(ev(trace.Req, fmt.Sprintf("g%d-r%d", g, i), i)).Wait()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", g, err)
		}
	}
	const events = waiters * perWaiter
	if grp := inj.Counts()[iofault.CallSync] - before; grp > events/4 {
		t.Fatalf("group commit: %d data fsyncs for %d events, want at most %d", grp, events, events/4)
	}
}

func TestGroupCommitAckImpliesDurable(t *testing.T) {
	// Every acked frame must survive a crash (Close without Seal models
	// losing the page cache is too kind — but the fsync already happened,
	// so surviving the file close is the contract recovery leans on).
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := l.AppendEventAsync(ev(trace.Req, fmt.Sprintf("r%d", i), i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if events, reqs := l2.ActiveEvents(); events != 10 || reqs != 10 {
		t.Fatalf("recovered %d events / %d requests, want 10/10", events, reqs)
	}
}

func TestGroupCommitQueueFullSheds(t *testing.T) {
	dir := t.TempDir()
	// Stall the committer's first batch so the queue backs up
	// deterministically.
	st := newStallFS(iofault.OS)
	l := openGroup(t, dir, Options{FS: st})
	first := l.AppendEventAsync(ev(trace.Req, "r0", 0))
	<-st.blocked // committer holds r0
	queued := make([]*Ack, commitQueue)
	for i := range queued {
		queued[i] = l.AppendEventAsync(ev(trace.Req, fmt.Sprintf("r%d", i+1), i+1))
	}
	shed := l.AppendEventAsync(ev(trace.Req, "shed", 0))
	if err := shed.Wait(); !errors.Is(err, ErrCommitQueueFull) {
		t.Fatalf("append to full queue: %v, want ErrCommitQueueFull", err)
	}
	close(st.release)
	for i, a := range append([]*Ack{first}, queued...) {
		if err := a.Wait(); err != nil {
			t.Fatalf("queued append %d failed after heal: %v", i, err)
		}
	}
	if events, _ := l.ActiveEvents(); events != commitQueue+1 {
		t.Fatalf("%d events committed, want %d", events, commitQueue+1)
	}
	l.Close()
}

func TestGroupCommitBatchFsyncFailureAcksNobody(t *testing.T) {
	// The torn-batch contract (DESIGN.md §14): when the batch fsync fails,
	// every waiter in the batch gets an error — nobody is acked — and the
	// batch's bytes are truncated away, so recovery replays exactly the
	// acked frames.
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l := openGroup(t, dir, Options{FS: inj})
	if err := l.AppendEventAsync(ev(trace.Req, "good", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: 1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	err := l.AppendEventAsync(ev(trace.Req, "doomed", 1)).Wait()
	if err == nil {
		t.Fatal("append with failing batch fsync was acked")
	}
	// The failed batch's bytes are gone; the log keeps accepting.
	if err := l.AppendEventAsync(ev(trace.Req, "after", 2)).Wait(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if events, _ := l2.ActiveEvents(); events != 2 {
		t.Fatalf("recovered %d events, want exactly the 2 acked ones", events)
	}
	if l2.ActiveLastRID() != "after" {
		t.Fatalf("recovered last RID %q, want %q", l2.ActiveLastRID(), "after")
	}
}

func TestGroupCommitShortWriteRetriesWithoutTearing(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l := openGroup(t, dir, Options{FS: inj})
	if err := inj.Arm(iofault.OpShortWrite, iofault.Arm{Times: 1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	// The first batch write tears mid-frame; the committer truncates the
	// tear and the transient retry lands the full batch.
	if err := l.AppendEventAsync(ev(trace.Req, "r0", 0)).Wait(); err != nil {
		t.Fatalf("short-write batch not retried: %v", err)
	}
	m, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != 1 {
		t.Fatalf("sealed %d events, want 1", m.Events)
	}
	l.Close()
	if _, _, _, err := ReadSealed(dir, 1, Options{FS: inj}); err != nil {
		t.Fatalf("sealed epoch unreadable after short-write recovery: %v", err)
	}
}

func TestGroupCommitTornBatchTailRecovery(t *testing.T) {
	// A crash mid-batch leaves a torn multi-frame tail — the group-commit
	// analogue of today's torn single frame. Recovery must replay exactly
	// the durable prefix.
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := l.AppendEventAsync(ev(trace.Req, fmt.Sprintf("r%d", i), i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate the crash: a batch of three frames written but torn partway
	// through its second frame, never fsynced, never acked.
	f1 := frame(trace.AppendEventBinary(nil, ev(trace.Req, "torn-a", 8)))
	f2 := frame(trace.AppendEventBinary(nil, ev(trace.Req, "torn-b", 9)))
	tp := tracePath(dir, 1)
	fh, err := os.OpenFile(tp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), f1...), f2[:len(f2)/2]...)
	if _, err := fh.Write(torn); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The intact first frame of the torn batch survives (it is a complete
	// frame on disk, exactly like today's torn single-frame recovery keeps
	// every complete frame); only the torn second frame is truncated away.
	if events, _ := l2.ActiveEvents(); events != 5 {
		t.Fatalf("recovered %d events, want 5 (4 acked + 1 intact unacked)", events)
	}
	if l2.ActiveLastRID() != "torn-a" {
		t.Fatalf("recovered last RID %q", l2.ActiveLastRID())
	}
}

func TestRotateFinishSealsEquivalentToSeal(t *testing.T) {
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	for i := 0; i < 6; i++ {
		if err := l.AppendEventAsync(ev(trace.Req, fmt.Sprintf("r%d", i), i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendAdvice([]byte("blob-1")); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Rotate()
	if err != nil || seq != 1 {
		t.Fatalf("rotate: %v (rotated epoch %d)", err, seq)
	}
	if n := l.PendingSeals(); n != 1 {
		t.Fatalf("%d pending seals, want 1", n)
	}
	// Appends keep flowing into the new epoch before the seal finishes —
	// that is the double buffer's whole point.
	if err := l.AppendEventAsync(ev(trace.Req, "next-epoch", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
	m, err := l.FinishSeals()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Seq != 1 || m.Events != 6 || m.Requests != 6 {
		t.Fatalf("finished manifest wrong: %+v", m)
	}
	if m.AdviceBytes != len("blob-1") {
		t.Fatalf("finished manifest advice bytes %d", m.AdviceBytes)
	}
	if got := len(l.Sealed()); got != 1 {
		t.Fatalf("%d sealed epochs, want 1", got)
	}
	if events, _ := l.ActiveEvents(); events != 1 {
		t.Fatalf("active epoch has %d events, want 1", events)
	}
	l.Close()
	if _, _, _, err := ReadSealed(dir, 1, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestRotateEmptyEpochIsNoop(t *testing.T) {
	l := openGroup(t, t.TempDir(), Options{})
	defer l.Close()
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Fatalf("rotated an empty epoch as epoch %d", seq)
	}
	if m, err := l.FinishSeals(); err != nil || m != nil {
		t.Fatalf("FinishSeals with nothing pending: %v, %+v", err, m)
	}
}

func TestFinishSealsFailureKeepsPendingAndRetries(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l := openGroup(t, dir, Options{FS: inj})
	if err := l.AppendEventAsync(ev(trace.Req, "r0", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Rotate(); err != nil || seq == 0 {
		t.Fatalf("rotate: %v", err)
	}
	if err := inj.Arm(iofault.OpFsyncFail, iofault.Arm{Times: -1, Target: ".manifest"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.FinishSeals(); err == nil {
		t.Fatal("FinishSeals succeeded with failing manifest fsync")
	}
	if n := l.PendingSeals(); n != 1 {
		t.Fatalf("%d pending after failed finish, want 1", n)
	}
	if _, err := os.Stat(manifestPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed seal left a manifest behind: %v", err)
	}
	inj.Heal()
	m, err := l.FinishSeals()
	if err != nil || m == nil || m.Seq != 1 {
		t.Fatalf("retried finish: %v, %+v", err, m)
	}
	l.Close()
}

func TestCrashBetweenRotateAndFinishRecoverySealsChain(t *testing.T) {
	// The double-buffer crash: several epochs rotated out, none of their
	// manifests written, the successor epoch already bearing frames. Open
	// must seal the whole contiguous chain (degraded — their seals never
	// finished) and resume appending in the last data-bearing epoch.
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	for ep := 0; ep < 2; ep++ {
		for i := 0; i < 3; i++ {
			rid := fmt.Sprintf("e%d-r%d", ep, i)
			if err := l.AppendEventAsync(ev(trace.Req, rid, i)).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if seq, err := l.Rotate(); err != nil || seq == 0 {
			t.Fatalf("rotate epoch %d: %v", ep, err)
		}
	}
	if err := l.AppendEventAsync(ev(trace.Req, "active-r0", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
	// Crash: no FinishSeals, no Close-side fsyncs.
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sealed := l2.Sealed()
	if len(sealed) != 2 {
		t.Fatalf("recovered %d sealed epochs, want 2", len(sealed))
	}
	for i, m := range sealed {
		if m.Seq != uint64(i)+1 || m.Events != 3 || m.Degraded == "" {
			t.Fatalf("recovery-sealed epoch %d wrong: %+v", i+1, m)
		}
		if _, _, _, err := ReadSealed(dir, m.Seq, Options{}); err != nil {
			t.Fatalf("recovery-sealed epoch %d unreadable: %v", m.Seq, err)
		}
	}
	if l2.ActiveSeq() != 3 {
		t.Fatalf("active epoch %d, want 3", l2.ActiveSeq())
	}
	if events, _ := l2.ActiveEvents(); events != 1 {
		t.Fatalf("active epoch recovered %d events, want 1", events)
	}
	// The log keeps working end to end.
	if err := l2.AppendEventAsync(ev(trace.Req, "post", 1)).Wait(); err != nil {
		t.Fatal(err)
	}
	if m, err := l2.Seal(); err != nil || m.Seq != 3 {
		t.Fatalf("seal after chain recovery: %v, %+v", err, m)
	}
	l2.Close()
}

func TestRecoverySealPreservesFreshMarker(t *testing.T) {
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	if err := l.MarkFresh(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEventAsync(ev(trace.Req, "r0", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Rotate(); err != nil || seq == 0 {
		t.Fatalf("rotate: %v", err)
	}
	if err := l.AppendEventAsync(ev(trace.Req, "r1", 1)).Wait(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sealed := l2.Sealed()
	if len(sealed) != 1 || !sealed[0].Fresh {
		t.Fatalf("recovery-sealed epoch lost its fresh mark: %+v", sealed)
	}
}

// TestGroupCommitBatchCap: a backlog larger than maxBatchFrames commits in
// batches of at most maxBatchFrames frames, one fsync each, and every
// queued frame lands. The committer's first batch is stalled in its write
// so the whole backlog is queued before it drains.
func TestGroupCommitBatchCap(t *testing.T) {
	inj := iofault.NewInjector(nil)
	st := newStallFS(inj)
	l := openGroup(t, t.TempDir(), Options{FS: st})
	defer l.Close()
	before := inj.Counts()[iofault.CallSync]
	first := l.AppendEventAsync(ev(trace.Req, "r0", 0))
	<-st.blocked // committer holds r0
	const backlog = 2*maxBatchFrames + 76
	acks := make([]*Ack, backlog)
	for i := range acks {
		acks[i] = l.AppendEventAsync(ev(trace.Req, fmt.Sprintf("r%d", i+1), i+1))
	}
	close(st.release)
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if err := a.Wait(); err != nil {
			t.Fatalf("queued append %d: %v", i, err)
		}
	}
	// r0 alone, then two full batches and the 76-frame remainder.
	if got, want := inj.Counts()[iofault.CallSync]-before, 1+3; got != want {
		t.Fatalf("%d data fsyncs for a %d-frame backlog, want %d (batches capped at %d)", got, backlog, want, maxBatchFrames)
	}
	if events, _ := l.ActiveEvents(); events != backlog+1 {
		t.Fatalf("%d events committed, want %d", events, backlog+1)
	}
}

// stallFS blocks the first write to a .trace file until release is closed
// and closes blocked when that write arrives, so a test can hold the
// committer's first batch while it fills the queue behind it.
type stallFS struct {
	iofault.FS
	blocked, release chan struct{}
	once             sync.Once
}

func newStallFS(base iofault.FS) *stallFS {
	return &stallFS{FS: base, blocked: make(chan struct{}), release: make(chan struct{})}
}

func (s *stallFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".trace") {
		return f, err
	}
	return stallFile{File: f, fs: s}, nil
}

type stallFile struct {
	iofault.File
	fs *stallFS
}

func (f stallFile) Write(b []byte) (int, error) {
	first := false
	f.fs.once.Do(func() { first = true })
	if first {
		close(f.fs.blocked)
		<-f.fs.release
	}
	return f.File.Write(b)
}
