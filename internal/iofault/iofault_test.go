package iofault

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"karousos.dev/karousos/internal/fault"
)

// TestPassthroughAndCounts: an injector with no armed operators behaves
// like the OS and counts every call.
func TestPassthroughAndCounts(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	p := filepath.Join(dir, "a")
	if err := in.WriteFile(p, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := in.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := in.Rename(p, p+"2"); err != nil {
		t.Fatal(err)
	}
	if err := in.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	c := in.Counts()
	for _, call := range []fault.Call{CallWrite, CallRead, CallRename, CallSyncDir} {
		if c[call] != 1 {
			t.Errorf("count[%s] = %d, want 1", call, c[call])
		}
	}
}

// TestTransientEIOFiresThenHeals: a Times-bounded transient operator fails
// exactly that many matching calls and then lets the retried call through.
func TestTransientEIOFiresThenHeals(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, fault.Arm{Times: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := in.ReadFile(p)
		if Classify(err) != ClassTransient {
			t.Fatalf("read %d: err %v classifies %v, want transient", i, err, Classify(err))
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("read %d: %v does not unwrap to EIO", i, err)
		}
	}
	if _, err := in.ReadFile(p); err != nil {
		t.Fatalf("read after schedule consumed: %v", err)
	}
	if in.Fired()[OpTransientEIO] != 2 {
		t.Fatalf("fired = %v, want transient-eio:2", in.Fired())
	}
}

// TestDeterministicSchedule: two injectors armed from the same spec fire
// on the same call indices.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		dir := t.TempDir()
		p := filepath.Join(dir, "a")
		os.WriteFile(p, []byte("x"), 0o644)
		in := NewInjector(nil)
		if err := in.ArmSpec("transient-eio:12345:5", ""); err != nil {
			t.Fatal(err)
		}
		var fires []bool
		for i := 0; i < 30; i++ {
			_, err := in.ReadFile(p)
			fires = append(fires, err != nil)
		}
		return fires
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d: %v vs %v", i, a, b)
		}
	}
}

// TestShortWriteLandsPrefix: the short-write operator tears the buffer —
// a prefix reaches the file, the call errors transient.
func TestShortWriteLandsPrefix(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	in := NewInjector(nil)
	if err := in.Arm(OpShortWrite, fault.Arm{Times: 1, After: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := in.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	n, err := f.Write([]byte("bbbb"))
	if err == nil || Classify(err) != ClassTransient {
		t.Fatalf("second write: n=%d err=%v, want transient fault", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(p)
	if string(got) != "aaaa"+"bb" {
		t.Fatalf("file = %q, want torn prefix aaaabb", got)
	}
}

// TestENOSPCClassifiesDegraded: disk-full faults are not retryable; they
// degrade.
func TestENOSPCClassifiesDegraded(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	if err := in.Arm(OpENOSPC, fault.Arm{Times: -1, Target: ".advice"}); err != nil {
		t.Fatal(err)
	}
	err := in.WriteFile(filepath.Join(dir, "ep1.advice"), []byte("x"), 0o644)
	if Classify(err) != ClassDegraded {
		t.Fatalf("advice write err %v classifies %v, want degraded", err, Classify(err))
	}
	// The path filter protects the trusted channel.
	if err := in.WriteFile(filepath.Join(dir, "ep1.trace"), []byte("x"), 0o644); err != nil {
		t.Fatalf("trace write should pass the .advice filter: %v", err)
	}
	in.Heal()
	if err := in.WriteFile(filepath.Join(dir, "ep2.advice"), []byte("x"), 0o644); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
	if in.Fired()[OpENOSPC] != 1 {
		t.Fatalf("fired = %v, want enospc:1 surviving Heal", in.Fired())
	}
}

// TestRetryAbsorbsTransients: Retry re-issues through a transient schedule
// and succeeds without surfacing the fault.
func TestRetryAbsorbsTransients(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a")
	os.WriteFile(p, []byte("x"), 0o644)
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, fault.Arm{Times: 3}); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	b := fault.Backoff{Base: time.Millisecond, Attempts: 5, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	err := Retry(context.Background(), b, func() error {
		_, err := in.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
}

// TestRetryStopsOnPermanent: non-transient errors return immediately.
func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), fault.Backoff{Sleep: func(time.Duration) {}}, func() error {
		calls++
		return os.ErrPermission
	})
	if !errors.Is(err, os.ErrPermission) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want ErrPermission after 1 call", err, calls)
	}
}

// TestRetryExhaustsAttempts: a fault outlasting the budget surfaces as the
// last transient error.
func TestRetryExhaustsAttempts(t *testing.T) {
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, fault.Arm{Times: -1}); err != nil {
		t.Fatal(err)
	}
	err := Retry(context.Background(), fault.Backoff{Attempts: 3, Sleep: func(time.Duration) {}}, func() error {
		_, err := in.ReadFile("nowhere")
		return err
	})
	if Classify(err) != ClassTransient {
		t.Fatalf("exhausted retry returned %v, want the transient fault", err)
	}
	if in.Fired()[OpTransientEIO] != 3 {
		t.Fatalf("fired %v, want 3 attempts", in.Fired())
	}
}

// TestRetryReturnsOnCancel: a cancelled context ends the backoff sleep at
// once instead of blocking up to Max per attempt, and the context's error
// arrives joined with the last I/O error.
func TestRetryReturnsOnCancel(t *testing.T) {
	in := NewInjector(nil)
	if err := in.Arm(OpTransientEIO, fault.Arm{Times: -1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	attempted := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, fault.Backoff{Base: time.Hour, Max: time.Hour}, func() error {
			attempted <- struct{}{}
			_, err := in.ReadFile("nowhere")
			return err
		})
	}()
	<-attempted // the first attempt has failed; Retry is in (or entering) its sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, syscall.EIO) {
			t.Fatalf("Retry = %v, want context.Canceled joined with the EIO", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry slept through a cancelled context")
	}
}

// TestRetrySuccessDoesNotAllocate: the first-attempt-succeeds path runs
// once per durable append, so it must stay allocation-free.
func TestRetrySuccessDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	op := func() error { return nil }
	if n := testing.AllocsPerRun(100, func() { _ = Retry(ctx, fault.Backoff{}, op) }); n != 0 {
		t.Fatalf("Retry's success path allocates %v times per call", n)
	}
}

// TestArmSpecChecksTheCatalogue: the grammar is the kernel's; which
// operators exist is this package's.
func TestArmSpecChecksTheCatalogue(t *testing.T) {
	in := NewInjector(nil)
	if err := in.ArmSpec("no-such-op:1", ""); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if err := in.ArmSpec("enospc:9:-1", ".advice"); err != nil {
		t.Fatal(err)
	}
	if err := in.ArmSpec("latency", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := in.Stat("nowhere"); err != nil && Classify(err) != ClassPermanent {
			t.Fatalf("latency must not inject errors: %v", err)
		}
	}
	if in.Fired()[OpLatency] != 3 {
		t.Fatalf("fired = %v: latency armed from a bare spec should fire until healed", in.Fired())
	}
}

// TestFsyncFailNotTransient: failed fsync must not be blindly retried —
// the classification makes Retry surface it at once.
func TestFsyncFailNotTransient(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	if err := in.Arm(OpFsyncFail, fault.Arm{Times: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := in.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	serr := f.Sync()
	if serr == nil || Classify(serr) != ClassPermanent {
		t.Fatalf("injected fsync failure %v classifies %v, want permanent", serr, Classify(serr))
	}
}

// TestPinJSON: a sidecar is written once. The same value again — however
// the file is formatted — costs no write; a different value is refused and
// the file left as it was; and the first write is atomic: a fault between
// the temp write and the rename leaves no torn file, so the retry succeeds.
func TestPinJSON(t *testing.T) {
	type label struct {
		App    string   `json:"app"`
		Fields []string `json:"fields,omitempty"`
	}
	in := NewInjector(nil)
	p := filepath.Join(t.TempDir(), "label.json")
	motd := label{App: "motd", Fields: []string{"id"}}

	if err := in.Arm(OpRenameFail, fault.Arm{}); err != nil {
		t.Fatal(err)
	}
	if err := PinJSON(in, p, motd); err == nil {
		t.Fatal("rename fault did not surface")
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed first write left something at the sidecar path: %v", err)
	}
	if err := PinJSON(in, p, motd); err != nil {
		t.Fatalf("retry after the rename fault: %v", err)
	}

	if err := os.WriteFile(p, []byte("{\n  \"fields\": [\"id\"],\n  \"app\": \"motd\"\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := in.Counts()
	if err := PinJSON(in, p, motd); err != nil {
		t.Fatalf("same value, other formatting: %v", err)
	}
	err := PinJSON(in, p, label{App: "stacks"})
	if err == nil || !strings.Contains(err.Error(), `"motd"`) || !strings.Contains(err.Error(), `"stacks"`) {
		t.Fatalf("relabel error %v, want both values named", err)
	}
	after := in.Counts()
	for _, call := range []fault.Call{CallWrite, CallRename, CallOpen, CallRemove, CallTruncate} {
		if after[call] != before[call] {
			t.Errorf("%d %s calls on an existing sidecar, want none", after[call]-before[call], call)
		}
	}
	if blob, err := os.ReadFile(p); err != nil || !strings.Contains(string(blob), `"app": "motd"`) {
		t.Fatalf("refused relabel disturbed the old file: %q, %v", blob, err)
	}

	if err := os.WriteFile(p, []byte(`{"app":"mo`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PinJSON(in, p, motd); err == nil {
		t.Fatal("an undecodable sidecar was overwritten")
	}
}
