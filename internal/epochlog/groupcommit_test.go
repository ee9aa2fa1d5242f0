package epochlog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
)

// noSleep keeps injected-fault retries instant in tests.
var noSleep = fault.Backoff{Sleep: func(time.Duration) {}}

func openGroup(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	opt.GroupCommit = true
	if opt.Backoff.Sleep == nil {
		opt.Backoff = noSleep
	}
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
			if err := l.AppendEventDurable(context.Background(), ev(trace.Req, rid, i)); err != nil {
				errs[i] = err
				return
			}
			errs[i] = l.AppendEventDurable(context.Background(), ev(trace.Resp, rid, i))
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
// fsyncs are slow enough that waiters pile up behind every batch.
// Per-request mode pays one data fsync per event; group mode must need at
// most a quarter as many.
func TestGroupCommitAmortisesFsyncs(t *testing.T) {
	const waiters, perWaiter = 32, 4
	dataFsyncs := func(group bool) int {
		inj := iofault.NewInjector(nil)
		l, err := Open(t.TempDir(), Options{FS: inj, GroupCommit: group, Backoff: noSleep})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := inj.Arm(iofault.OpLatency, fault.Arm{Times: -1, Target: ".trace"}); err != nil {
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
					errs[g] = l.AppendEventDurable(context.Background(), ev(trace.Req, fmt.Sprintf("g%d-r%d", g, i), i))
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("waiter %d: %v", g, err)
			}
		}
		return inj.Counts()[iofault.CallSync] - before
	}
	const events = waiters * perWaiter
	if per := dataFsyncs(false); per != events {
		t.Fatalf("per-request mode: %d data fsyncs for %d events, want one each", per, events)
	}
	if grp := dataFsyncs(true); grp > events/4 {
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
		if err := l.AppendEventDurable(context.Background(), ev(trace.Req, fmt.Sprintf("r%d", i), i)); err != nil {
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
	inj := iofault.NewInjector(nil)
	// Stall the committer's first batch in a long retry loop so the queue
	// backs up deterministically.
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	l := openGroup(t, dir, Options{FS: inj, CommitQueue: 2, Backoff: fault.Backoff{
		Attempts: 100,
		Sleep: func(time.Duration) {
			once.Do(func() { close(blocked) })
			<-release
		},
	}})
	if err := inj.Arm(iofault.OpTransientEIO, fault.Arm{Times: 99, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	first := l.AppendEventAsync(context.Background(), ev(trace.Req, "r0", 0))
	<-blocked // committer holds r0, retrying
	a1 := l.AppendEventAsync(context.Background(), ev(trace.Req, "r1", 1))
	a2 := l.AppendEventAsync(context.Background(), ev(trace.Req, "r2", 2))
	shed := l.AppendEventAsync(context.Background(), ev(trace.Req, "r3", 3))
	if err := shed.Wait(); !errors.Is(err, ErrCommitQueueFull) {
		t.Fatalf("append to full queue: %v, want ErrCommitQueueFull", err)
	}
	inj.Heal()
	close(release)
	for i, a := range []*Ack{first, a1, a2} {
		if err := a.Wait(); err != nil {
			t.Fatalf("queued append %d failed after heal: %v", i, err)
		}
	}
	if events, _ := l.ActiveEvents(); events != 3 {
		t.Fatalf("%d events committed, want 3", events)
	}
	l.Close()
}

func TestGroupCommitAbandonsExpiredDeadlines(t *testing.T) {
	dir := t.TempDir()
	l := openGroup(t, dir, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := l.AppendEventDurable(ctx, ev(trace.Req, "r0", 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("append with dead context: %v, want context.Canceled", err)
	}
	if events, _ := l.ActiveEvents(); events != 0 {
		t.Fatalf("abandoned append still landed: %d events", events)
	}
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "r1", 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.ActiveLastRID() != "r1" {
		t.Fatalf("recovered last RID %q, want r1 only", l2.ActiveLastRID())
	}
}

func TestGroupCommitBatchFsyncFailureAcksNobody(t *testing.T) {
	// The torn-batch contract (DESIGN.md §14): when the batch fsync fails,
	// every waiter in the batch gets an error — nobody is acked — and the
	// batch's bytes are truncated away, so recovery replays exactly the
	// acked frames.
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l := openGroup(t, dir, Options{FS: inj})
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "good", 0)); err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: 1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	err := l.AppendEventDurable(context.Background(), ev(trace.Req, "doomed", 1))
	if err == nil {
		t.Fatal("append with failing batch fsync was acked")
	}
	// The failed batch's bytes are gone; the log keeps accepting.
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "after", 2)); err != nil {
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
	if err := inj.Arm(iofault.OpShortWrite, fault.Arm{Times: 1, Target: ".trace"}); err != nil {
		t.Fatal(err)
	}
	// The first batch write tears mid-frame; the committer truncates the
	// tear and the transient retry lands the full batch.
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "r0", 0)); err != nil {
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
		if err := l.AppendEventDurable(context.Background(), ev(trace.Req, fmt.Sprintf("r%d", i), i)); err != nil {
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
	l2, err := Open(dir, Options{GroupCommit: true})
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
		if err := l.AppendEventDurable(context.Background(), ev(trace.Req, fmt.Sprintf("r%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendAdvice([]byte("blob-1")); err != nil {
		t.Fatal(err)
	}
	rotated, err := l.Rotate()
	if err != nil || !rotated {
		t.Fatalf("rotate: %v (rotated=%v)", err, rotated)
	}
	if n := l.PendingSeals(); n != 1 {
		t.Fatalf("%d pending seals, want 1", n)
	}
	// Appends keep flowing into the new epoch before the seal finishes —
	// that is the double buffer's whole point.
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "next-epoch", 0)); err != nil {
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
	rotated, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if rotated {
		t.Fatal("rotated an empty epoch")
	}
	if m, err := l.FinishSeals(); err != nil || m != nil {
		t.Fatalf("FinishSeals with nothing pending: %v, %+v", err, m)
	}
}

func TestFinishSealsFailureKeepsPendingAndRetries(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(nil)
	l := openGroup(t, dir, Options{FS: inj})
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "r0", 0)); err != nil {
		t.Fatal(err)
	}
	if rotated, err := l.Rotate(); err != nil || !rotated {
		t.Fatalf("rotate: %v", err)
	}
	if err := inj.Arm(iofault.OpFsyncFail, fault.Arm{Times: -1, Target: ".manifest"}); err != nil {
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
			if err := l.AppendEventDurable(context.Background(), ev(trace.Req, rid, i)); err != nil {
				t.Fatal(err)
			}
		}
		if rotated, err := l.Rotate(); err != nil || !rotated {
			t.Fatalf("rotate epoch %d: %v", ep, err)
		}
	}
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "active-r0", 0)); err != nil {
		t.Fatal(err)
	}
	// Crash: no FinishSeals, no Close-side fsyncs.
	l.Close()

	l2, err := Open(dir, Options{GroupCommit: true})
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
	if err := l2.AppendEventDurable(context.Background(), ev(trace.Req, "post", 1)); err != nil {
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
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "r0", 0)); err != nil {
		t.Fatal(err)
	}
	if rotated, err := l.Rotate(); err != nil || !rotated {
		t.Fatalf("rotate: %v", err)
	}
	if err := l.AppendEventDurable(context.Background(), ev(trace.Req, "r1", 1)); err != nil {
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
