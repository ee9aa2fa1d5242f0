package leakcheck

import (
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// park blocks until release is closed; its name in a stack dump marks the
// goroutine a test started.
func park(release <-chan struct{}, done chan<- struct{}) {
	<-release
	close(done)
}

// TestLeakedReportsStrandedGoroutine: a goroutine of this module that is
// still blocked when the grace period ends is reported, with its stack.
func TestLeakedReportsStrandedGoroutine(t *testing.T) {
	release, done := make(chan struct{}), make(chan struct{})
	go park(release, done)
	defer func() { close(release); <-done }()

	stacks := leaked(100 * time.Millisecond)
	if len(stacks) != 1 {
		t.Fatalf("got %d leaked goroutines, want 1:\n%s", len(stacks), strings.Join(stacks, "\n\n"))
	}
	if !strings.Contains(stacks[0], "leakcheck.park") {
		t.Errorf("reported stack does not name the stranded function:\n%s", stacks[0])
	}
}

// TestLeakedWaitsForWindingDown: a goroutine that exits within the grace
// period (a drained worker, a closed listener's accept loop) is not a leak.
func TestLeakedWaitsForWindingDown(t *testing.T) {
	release, done := make(chan struct{}), make(chan struct{})
	go park(release, done)
	time.AfterFunc(50*time.Millisecond, func() { close(release) })

	if stacks := leaked(5 * time.Second); len(stacks) != 0 {
		t.Fatalf("a goroutine that exits within the grace period was reported:\n%s", strings.Join(stacks, "\n\n"))
	}
	<-done
}

// TestLeakedExcludesCaller: the goroutine asking, which runs this module's
// code too, is never its own leak.
func TestLeakedExcludesCaller(t *testing.T) {
	if stacks := leaked(0); len(stacks) != 0 {
		t.Fatalf("got %d leaked goroutines with none started, want 0:\n%s", len(stacks), strings.Join(stacks, "\n\n"))
	}
}

// TestLeakedIgnoresForeignGoroutines: a goroutine that runs no code of this
// module is not reported, however long it lives. os/signal's watcher, which
// stays up for the rest of the process once anything asks for a signal, is
// one; net/http's idle connection loops are others.
func TestLeakedIgnoresForeignGoroutines(t *testing.T) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR1)
	defer signal.Stop(c)
	buf := make([]byte, 1<<20)
	if dump := string(buf[:runtime.Stack(buf, true)]); !strings.Contains(dump, "os/signal.loop") {
		t.Fatalf("os/signal's watcher goroutine is not running:\n%s", dump)
	}

	if stacks := leaked(0); len(stacks) != 0 {
		t.Fatalf("got %d leaked goroutines, want 0:\n%s", len(stacks), strings.Join(stacks, "\n\n"))
	}
}
