package epochlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
)

// errCrashed is what every mutating call returns once a crashFS has
// stopped the world.
var errCrashed = errors.New("crashfs: process crashed")

// crashFS is an iofault.FS over a real directory that numbers every
// mutating call — OpenFile for writing, File.Write, File.Sync, WriteFile,
// Truncate, Rename, Remove, SyncDir — and crashes after call number at
// (0 never crashes): every later mutating call fails with errCrashed and
// has no effect. The crash model is page-cache loss: settle rewrites each
// file the run wrote to the bytes its last Sync covered, so a write no
// Sync reached is gone. Directory entries (create, rename, remove) and
// truncations count as durable at once.
type crashFS struct {
	mu      sync.Mutex
	at      int
	calls   int
	crashed bool
	open    int               // write handles not yet closed
	durable map[string][]byte // per written file, the bytes its last Sync covered
}

func newCrashFS(at int) *crashFS { return &crashFS{at: at, durable: map[string][]byte{}} }

// step numbers one mutating call and runs it, unless the world has
// already stopped.
func (c *crashFS) step(do func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return errCrashed
	}
	c.calls++
	err := do()
	if c.calls == c.at {
		c.crashed = true
	}
	return err
}

// track starts the durability record of a file the run is about to
// write: whatever it held before counts as durable.
func (c *crashFS) track(name string) {
	if _, ok := c.durable[name]; !ok {
		data, _ := os.ReadFile(name)
		c.durable[name] = data
	}
}

// settle applies the crash: every tracked file that still exists is cut
// back to its durable bytes.
func (c *crashFS) settle() error {
	for name, data := range c.durable {
		if _, err := os.Stat(name); errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return iofault.OS.OpenFile(name, flag, perm)
	}
	var f iofault.File
	err := c.step(func() error {
		var err error
		if f, err = iofault.OS.OpenFile(name, flag, perm); err == nil {
			c.track(name)
			c.open++
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &crashFile{c: c, f: f, name: name}, nil
}

func (c *crashFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return c.step(func() error {
		if err := os.WriteFile(name, data, perm); err != nil {
			return err
		}
		c.durable[name] = nil // the entry is durable, the unsynced bytes are not
		return nil
	})
}

func (c *crashFS) Truncate(name string, size int64) error {
	return c.step(func() error {
		c.track(name)
		if err := os.Truncate(name, size); err != nil {
			return err
		}
		if d := c.durable[name]; int64(len(d)) > size {
			c.durable[name] = d[:size]
		}
		return nil
	})
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	return c.step(func() error {
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		if d, ok := c.durable[oldpath]; ok {
			c.durable[newpath] = d
			delete(c.durable, oldpath)
		}
		return nil
	})
}

func (c *crashFS) Remove(name string) error {
	return c.step(func() error {
		if err := os.Remove(name); err != nil {
			return err
		}
		delete(c.durable, name)
		return nil
	})
}

func (c *crashFS) SyncDir(dir string) error {
	return c.step(func() error { return iofault.OS.SyncDir(dir) })
}

func (c *crashFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (c *crashFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (c *crashFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (c *crashFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

type crashFile struct {
	c    *crashFS
	f    iofault.File
	name string
}

func (p *crashFile) Write(b []byte) (int, error) {
	var n int
	err := p.c.step(func() error {
		var err error
		n, err = p.f.Write(b)
		return err
	})
	return n, err
}

func (p *crashFile) Sync() error {
	return p.c.step(func() error {
		if err := p.f.Sync(); err != nil {
			return err
		}
		data, err := os.ReadFile(p.name)
		p.c.durable[p.name] = data
		return err
	})
}

func (p *crashFile) Close() error {
	p.c.mu.Lock()
	p.c.open--
	p.c.mu.Unlock()
	return p.f.Close()
}

// scriptAdvice is the advice record crashScript binds to each epoch.
var scriptAdvice = map[uint64]string{1: "advice-1", 2: "advice-2", 3: "advice-3"}

// crashScript drives one log through the seal path's every stage: acked
// appends and advice → Rotate → acked appends → FinishSeals → acked
// appends and advice → Seal → acked appends → Rotate → acked appends →
// advice for the rotated epoch → Close, which writes that still-bound
// record for the next Open to adopt. It stops at the first error and
// returns the RIDs whose appends were acked.
func crashScript(dir string, fsys iofault.FS) (acked []string) {
	l, err := Open(dir, Options{FS: fsys})
	if err != nil {
		return nil
	}
	defer l.Close()
	appendAcked := func(n int) error {
		for i := 0; i < n; i++ {
			rid := fmt.Sprintf("r%d", len(acked))
			if err := l.AppendEventAsync(ev(trace.Req, rid, len(acked))).Wait(); err != nil {
				return err
			}
			acked = append(acked, rid)
		}
		return nil
	}
	steps := []func() error{
		func() error { return appendAcked(3) },
		func() error { return l.AppendAdvice([]byte("advice-1")) },
		func() error { _, err := l.Rotate(); return err },
		func() error { return appendAcked(2) },
		func() error { _, err := l.FinishSeals(); return err },
		func() error { return appendAcked(2) },
		func() error { return l.AppendAdvice([]byte("advice-2")) },
		func() error { _, err := l.Seal(); return err },
		func() error { return appendAcked(1) },
		func() error { _, err := l.Rotate(); return err },
		func() error { return appendAcked(1) },
		func() error { return l.SetAdvice(3, []byte(scriptAdvice[3])) },
		func() error { return l.Close() },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			break
		}
	}
	return acked
}

// checkCrashImage asserts what recovery promises about a crashed
// directory: every manifest on disk covers durable data, Open succeeds,
// every sealed epoch reads back with its digest, an epoch recovery sealed
// is Degraded, an epoch's advice is either none or the whole record the
// script bound to it, and every acked frame is in a sealed or the active
// epoch.
func checkCrashImage(dir string, acked []string) error {
	pre, err := ListSealed(dir)
	if err != nil {
		return fmt.Errorf("listing the crash image: %w", err)
	}
	for _, m := range pre {
		_, blob, _, err := ReadSealed(dir, m.Seq, Options{})
		if err != nil {
			return fmt.Errorf("manifest %d covers data that is not durable: %w", m.Seq, err)
		}
		if len(blob) != m.AdviceBytes {
			return fmt.Errorf("manifest %d records %d advice bytes, %d are durable", m.Seq, m.AdviceBytes, len(blob))
		}
	}
	l, err := Open(dir, Options{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer l.Close()
	for _, m := range l.Sealed() {
		if m.Seq > uint64(len(pre)) && m.Degraded == "" {
			return fmt.Errorf("crash-orphaned epoch %d sealed without Degraded", m.Seq)
		}
	}
	// Seal the recovered active epoch too, so every surviving frame is
	// readable through ReadSealed.
	if _, err := l.Seal(); err != nil {
		return fmt.Errorf("seal after recovery: %w", err)
	}
	have := map[string]bool{}
	for _, m := range l.Sealed() {
		tr, blob, _, err := ReadSealed(dir, m.Seq, Options{})
		if err != nil {
			return fmt.Errorf("sealed epoch %d unreadable after recovery: %w", m.Seq, err)
		}
		if tr.Digest() != m.TraceDigest {
			return fmt.Errorf("sealed epoch %d digest changed", m.Seq)
		}
		if len(blob) > 0 && string(blob) != scriptAdvice[m.Seq] {
			return fmt.Errorf("sealed epoch %d adopted advice %q, bound %q", m.Seq, blob, scriptAdvice[m.Seq])
		}
		for _, e := range tr.Events {
			have[e.RID] = true
		}
	}
	for _, rid := range acked {
		if !have[rid] {
			return fmt.Errorf("acked frame %s lost", rid)
		}
	}
	return nil
}

// copyTree copies the flat directory src into a fresh directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashAtEveryPoint enumerates crash points rather than sampling
// them: the seal-path script crashes after each of its mutating calls in
// turn, and for every resulting image recovery itself crashes after each
// of its own mutating calls. Every image, and every image a crashed
// recovery leaves behind, must satisfy checkCrashImage, and an Open that
// fails partway must leave no write handle open.
func TestCrashAtEveryPoint(t *testing.T) {
	dry := newCrashFS(0)
	if acked := crashScript(t.TempDir(), dry); len(acked) != 9 {
		t.Fatalf("uncrashed script acked %d frames, want 9", len(acked))
	}
	points := dry.calls
	recoveryPoints := 0
	for k := 1; k <= points; k++ {
		dir := t.TempDir()
		cfs := newCrashFS(k)
		acked := crashScript(dir, cfs)
		if err := cfs.settle(); err != nil {
			t.Fatal(err)
		}
		// Count recovery's own mutating calls on a copy of the image.
		count := newCrashFS(0)
		if l, err := Open(copyTree(t, dir), Options{FS: count}); err != nil {
			t.Fatalf("crash after call %d of %d: recovery: %v", k, points, err)
		} else {
			l.Close()
		}
		recoveryPoints += count.calls
		for j := 1; j <= count.calls; j++ {
			img := copyTree(t, dir)
			rfs := newCrashFS(j)
			if l, err := Open(img, Options{FS: rfs}); err == nil {
				l.Close()
			} else if rfs.open != 0 {
				t.Errorf("crash after call %d, recovery crash after call %d: failed Open left %d write handles open", k, j, rfs.open)
			}
			if err := rfs.settle(); err != nil {
				t.Fatal(err)
			}
			if err := checkCrashImage(img, acked); err != nil {
				t.Errorf("crash after call %d, recovery crash after call %d: %v", k, j, err)
			}
		}
		if err := checkCrashImage(dir, acked); err != nil {
			t.Errorf("crash after call %d of %d: %v", k, points, err)
		}
	}
	t.Logf("%d crash points in the script, %d in the recoveries of its images", points, recoveryPoints)
}
