package fleet

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// shMember builds a ready-on-start member running a shell script — the
// supervisor is process-shape-agnostic, so plain /bin/sh stands in for a
// collector in these tests.
func shMember(name, script string, budget int) MemberSpec {
	return MemberSpec{Name: name, Argv: []string{"/bin/sh", "-c", script}, RestartBudget: budget}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRestartBudgetExhausts: a member that always crashes is restarted
// exactly budget times, then left down and marked Exhausted — the
// supervisor never spins on a hot-crashing process.
func TestRestartBudgetExhausts(t *testing.T) {
	sup, err := New(Config{
		Members:        []MemberSpec{shMember("crasher", "exit 7", 2)},
		RestartBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "budget exhaustion", func() bool {
		st := sup.Status()[0]
		return !st.Running && st.Restarts == 2 && st.Exhausted
	})
	st := sup.Status()[0]
	if !strings.Contains(st.LastExit, "7") {
		t.Fatalf("last exit %q does not carry the crash status", st.LastExit)
	}
	if err := sup.Stop(time.Second); err != nil {
		t.Fatalf("stop after exhaustion: %v", err)
	}
}

// TestStopInterruptsRestartBackoff: Stop during a member's restart back-off
// returns at once — it does not sit out the delay.
func TestStopInterruptsRestartBackoff(t *testing.T) {
	sup, err := New(Config{
		Members:        []MemberSpec{shMember("crasher", "exit 7", 2)},
		RestartBackoff: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the crash", func() bool { return !sup.Status()[0].Running })
	start := time.Now()
	if err := sup.Stop(time.Second); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Stop took %v: it waited out the restart back-off", took)
	}
	if st := sup.Status()[0]; st.Running || st.Restarts != 0 {
		t.Fatalf("after stop: %+v", st)
	}
}

// TestKillTriggersRestart: SIGKILL-ing a healthy member is repaired by
// the supervisor within the budget.
func TestKillTriggersRestart(t *testing.T) {
	sup, err := New(Config{
		Members:        []MemberSpec{shMember("worker", "while true; do sleep 0.05; done", 3)},
		RestartBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(2 * time.Second)
	first := sup.Status()[0].PID
	if first == 0 {
		t.Fatal("no pid for a running member")
	}
	if err := sup.Kill("worker"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "supervised restart", func() bool {
		st := sup.Status()[0]
		return st.Running && st.Restarts == 1 && st.PID != first
	})
}

// TestStopDeliversSIGTERM: Stop must reach members as SIGTERM (the
// drain-and-seal signal), not SIGKILL, and a member that honors it exits
// within grace without being restarted. The script echoes only after its
// trap is installed so the test never signals a half-started shell.
func TestStopDeliversSIGTERM(t *testing.T) {
	var out lockedBuffer
	sup, err := New(Config{
		Members: []MemberSpec{shMember("drainer",
			`trap 'echo draining; exit 0' TERM; echo armed; while true; do sleep 0.05; done`, 3)},
		Output:         &out,
		RestartBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trap armed", func() bool { return strings.Contains(out.String(), "[drainer] armed") })
	if err := sup.Stop(3 * time.Second); err != nil {
		t.Fatalf("graceful stop escalated: %v", err)
	}
	st := sup.Status()[0]
	if st.Running || st.Restarts != 0 {
		t.Fatalf("after stop: %+v", st)
	}
	if !strings.Contains(out.String(), "[drainer] draining") {
		t.Fatalf("member never saw SIGTERM; output: %q", out.String())
	}
}

// TestStopEscalatesToKill: a member that ignores SIGTERM is SIGKILLed
// after the grace period, and Stop reports the escalation.
func TestStopEscalatesToKill(t *testing.T) {
	var out lockedBuffer
	sup, err := New(Config{
		Members: []MemberSpec{shMember("stubborn",
			`trap '' TERM; echo armed; while true; do sleep 0.05; done`, 3)},
		Output:         &out,
		RestartBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trap armed", func() bool { return strings.Contains(out.String(), "[stubborn] armed") })
	if err := sup.Stop(100 * time.Millisecond); err == nil {
		t.Fatal("stop of a TERM-ignoring member reported clean")
	}
	if st := sup.Status()[0]; st.Running {
		t.Fatalf("member survived SIGKILL: %+v", st)
	}
}

// TestSignalAndValidation: Signal reaches a live member; unknown names
// and empty fleets are constructor/call errors.
func TestSignalAndValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New(Config{Members: []MemberSpec{
		shMember("a", "sleep 1", 0), shMember("a", "sleep 1", 0),
	}}); err == nil {
		t.Fatal("duplicate member name accepted")
	}
	var out lockedBuffer
	sup, err := New(Config{
		Members: []MemberSpec{shMember("sig",
			`trap 'echo hup' HUP; echo armed; while true; do sleep 0.05; done`, 3)},
		Output: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(2 * time.Second)
	if err := sup.Kill("ghost"); err == nil {
		t.Fatal("kill of unknown member accepted")
	}
	waitFor(t, "trap armed", func() bool { return strings.Contains(out.String(), "[sig] armed") })
	if err := sup.Signal("sig", syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "HUP delivery", func() bool { return strings.Contains(out.String(), "[sig] hup") })
}

// TestNeverRestart: a negative budget means crash-once-stay-down.
func TestNeverRestart(t *testing.T) {
	sup, err := New(Config{
		Members:        []MemberSpec{shMember("oneshot", "exit 1", -1)},
		RestartBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "member down", func() bool { return !sup.Status()[0].Running })
	time.Sleep(50 * time.Millisecond)
	if st := sup.Status()[0]; st.Restarts != 0 {
		t.Fatalf("negative budget restarted anyway: %+v", st)
	}
	sup.Stop(time.Second)
}

// lockedBuffer is a concurrency-safe bytes.Buffer for member output.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
