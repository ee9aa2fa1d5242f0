// Package iofault is the pipeline's injectable I/O layer: a minimal VFS
// abstraction (FS/File) covering exactly the filesystem calls the evidence
// path makes — open, read, write, fsync, rename, readdir, stat, truncate,
// remove, mkdir, directory fsync — with an OS backend and an Injector that
// wraps any backend with deterministic, seedable fault operators.
//
// Where internal/faultinject corrupts the *untrusted advice*, iofault
// breaks the *infrastructure underneath the trusted trace*: transient EIO,
// short writes, fsync failures, rename failures, ENOSPC, latency. The
// invariant the chaos harness uses this package to enforce is the dual of
// faultinject's: an infrastructure fault must never surface as a false
// reject or a dead pipeline — it is retried (transient), degraded around
// (disk full, advice outage), or halts loudly (permanent) per the Classify
// ladder.
//
// Every armed operator fires on a schedule derived from its seed and the
// sequence of matching calls alone (schedule.go), so a scenario replayed
// with the same seed injects the same fault history.
package iofault

import (
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// FS is the filesystem surface the pipeline writes evidence through.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so freshly created or renamed entries are
	// durable (a no-op error on filesystems that do not support it).
	SyncDir(dir string) error
}

// File is an open file handle on the write path.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OS is the passthrough backend: the real filesystem, no faults.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileSync makes data the whole of the file name, durably: open
// (create or truncate), write, fsync, close. The error names the stage
// that failed; bytes of a failed write or fsync may remain.
func WriteFileSync(fsys FS, name string, data []byte) error {
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close() // close-after-error; the write error is the one that surfaces
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() // close-after-error; the fsync error is the one that surfaces
		return fmt.Errorf("fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// Call names one VFS entry point: what operators intercept and the
// Injector counts.
type Call string

// The VFS entry points.
const (
	CallOpen     Call = "open"
	CallRead     Call = "read"
	CallWrite    Call = "write"
	CallSync     Call = "sync"
	CallSyncDir  Call = "syncdir"
	CallRename   Call = "rename"
	CallReadDir  Call = "readdir"
	CallRemove   Call = "remove"
	CallTruncate Call = "truncate"
	CallStat     Call = "stat"
	CallMkdir    Call = "mkdir"
)

// FaultError is an injected failure. Transient tells the Classify/Retry
// layer whether re-issuing the operation may succeed.
type FaultError struct {
	Op        string // operator name
	Call      Call   // intercepted VFS call
	Path      string
	Transient bool
	Err       error // underlying errno (syscall.EIO, syscall.ENOSPC, ...)
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("iofault: %s on %s %s: %v", e.Op, e.Call, e.Path, e.Err)
}
func (e *FaultError) Unwrap() error { return e.Err }

// Operator names. Each models one infrastructure failure class.
const (
	// OpTransientEIO fails open/read/readdir/stat/write calls with EIO;
	// the identical retried call succeeds once the schedule is consumed.
	OpTransientEIO = "transient-eio"
	// OpShortWrite lands a prefix of the buffer and fails the rest (torn
	// write: the frame CRC layer must truncate it on recovery).
	OpShortWrite = "short-write"
	// OpFsyncFail fails Sync and SyncDir. Not transient: after a failed
	// fsync the kernel may have dropped the dirty pages, so blind re-sync
	// is unsound — callers must rewrite the data or abort the seal.
	OpFsyncFail = "fsync-fail"
	// OpRenameFail fails Rename with EIO (transient).
	OpRenameFail = "rename-fail"
	// OpENOSPC fails write-side calls with ENOSPC until healed: the
	// degradation ladder, not the retry loop, must absorb it.
	OpENOSPC = "enospc"
	// OpLatency sleeps 1–4ms on every matching call without erroring.
	OpLatency = "latency"
)

// operators is the catalogue: each operator and the calls it intercepts.
// Latency is a condition, not an event — a single 1–4ms sleep is not a
// scenario — so it is sustained.
var operators = []operator{
	{name: OpTransientEIO, calls: []Call{CallOpen, CallRead, CallReadDir, CallStat, CallWrite}},
	{name: OpShortWrite, calls: []Call{CallWrite}},
	{name: OpFsyncFail, calls: []Call{CallSync, CallSyncDir}},
	{name: OpRenameFail, calls: []Call{CallRename}},
	{name: OpENOSPC, calls: []Call{CallWrite, CallMkdir}},
	{name: OpLatency, sustained: true},
}

// Injector wraps a backend FS with armed fault operators (Arm, ArmSpec,
// Heal) and counts every call (Counts, Fired). The Arm target filter
// matches against the call's path. It is safe for concurrent use; the
// schedule is serialized under one mutex, so a single-threaded caller sees
// a fully deterministic fault history.
type Injector struct {
	base FS

	mu      sync.Mutex
	armed   []*armed
	counts  map[Call]int
	retired map[string]int // fire counts of healed operators
}

// NewInjector wraps base (OS when nil) with an empty fault plan.
func NewInjector(base FS) *Injector {
	if base == nil {
		base = OS
	}
	return &Injector{base: base, counts: make(map[Call]int), retired: make(map[string]int)}
}

// fault consults the schedule for one call and returns the injected error
// (nil to proceed). Latency sleeps here; short writes are handled by the
// caller via the returned *FaultError with Op == OpShortWrite.
func (in *Injector) fault(call Call, path string) *FaultError {
	hit := in.next(call, path)
	if hit == nil {
		return nil
	}
	switch hit.op.name {
	case OpLatency:
		time.Sleep(time.Duration(hit.scale(1)) * time.Millisecond)
	case OpTransientEIO, OpRenameFail:
		return &FaultError{Op: hit.op.name, Call: call, Path: path, Transient: true, Err: syscall.EIO}
	case OpShortWrite:
		return &FaultError{Op: hit.op.name, Call: call, Path: path, Transient: true, Err: io.ErrShortWrite}
	case OpFsyncFail:
		return &FaultError{Op: hit.op.name, Call: call, Path: path, Err: syscall.EIO}
	case OpENOSPC:
		return &FaultError{Op: hit.op.name, Call: call, Path: path, Err: syscall.ENOSPC}
	}
	return nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if fe := in.fault(CallOpen, name); fe != nil {
		return nil, fe
	}
	f, err := in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if fe := in.fault(CallRead, name); fe != nil {
		return nil, fe
	}
	return in.base.ReadFile(name)
}

func (in *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	if fe := in.fault(CallWrite, name); fe != nil {
		if fe.Op == OpShortWrite && len(data) > 0 {
			_ = in.base.WriteFile(name, data[:len(data)/2], perm)
		}
		return fe
	}
	return in.base.WriteFile(name, data, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if fe := in.fault(CallReadDir, name); fe != nil {
		return nil, fe
	}
	return in.base.ReadDir(name)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if fe := in.fault(CallRename, oldpath); fe != nil {
		return fe
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if fe := in.fault(CallRemove, name); fe != nil {
		return fe
	}
	return in.base.Remove(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	if fe := in.fault(CallTruncate, name); fe != nil {
		return fe
	}
	return in.base.Truncate(name, size)
}

func (in *Injector) Stat(name string) (os.FileInfo, error) {
	if fe := in.fault(CallStat, name); fe != nil {
		return nil, fe
	}
	return in.base.Stat(name)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if fe := in.fault(CallMkdir, path); fe != nil {
		return fe
	}
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) SyncDir(dir string) error {
	if fe := in.fault(CallSyncDir, dir); fe != nil {
		return fe
	}
	return in.base.SyncDir(dir)
}

// injFile threads writes and syncs of an open handle back through the
// injector's schedule.
type injFile struct {
	in   *Injector
	f    File
	name string
}

func (p *injFile) Write(b []byte) (int, error) {
	if fe := p.in.fault(CallWrite, p.name); fe != nil {
		if fe.Op == OpShortWrite && len(b) > 0 {
			n, _ := p.f.Write(b[:len(b)/2])
			return n, fe
		}
		return 0, fe
	}
	return p.f.Write(b)
}

func (p *injFile) Sync() error {
	if fe := p.in.fault(CallSync, p.name); fe != nil {
		return fe
	}
	return p.f.Sync()
}

func (p *injFile) Close() error { return p.f.Close() }
