// Package epochlog is the durable evidence store of the continuous-audit
// pipeline: an on-disk, segmented log of trace events and advice,
// partitioned into sealed epochs.
//
// Layout: each epoch seq owns three files in one directory —
//
//	ep%06d.trace    framed trace events (trusted channel)
//	ep%06d.advice   framed advice blobs (untrusted channel; last wins)
//	ep%06d.manifest one framed JSON Manifest; its presence seals the epoch
//
// Every record is framed as u32le(payload length) | u32le(CRC32C(payload))
// | payload. Trace frames each carry one canonically-encoded trace event
// (internal/trace's binary codec), so the manifest's trace digest is
// recomputable from segment payloads alone. Advice frames each carry one
// complete serialized advice blob; the server may re-upload (e.g. after a
// retry), and the last intact record wins. The manifest is written and
// fsynced only after its data files are fsynced, so a sealed epoch's
// contents are durable before the seal itself is.
//
// Crash recovery (Open) adopts the longest contiguous prefix of validly
// sealed epochs, truncates torn tails off the successor's data files, and
// quarantines (renames, never deletes) anything beyond: appending resumes
// exactly where the crash interrupted. A valid manifest past a gap in the
// sealed prefix makes Open fail loudly instead — recovery refuses to
// discard epochs that are still verifiable evidence. Sealed epochs are
// immutable, so a concurrently running auditor reads them
// (ListSealed/ReadSealed) without coordination.
package epochlog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrAdviceTooLarge reports an advice record over Options.MaxAdviceBytes.
var ErrAdviceTooLarge = errors.New("advice record exceeds byte limit")

// ErrCommitQueueFull reports that a durable append was refused because the
// group-commit queue is at capacity. The caller admitted more work than the
// disk can absorb; shedding here (the collector answers 429) is what keeps
// the queue bounded instead of stretching latency without limit.
var ErrCommitQueueFull = errors.New("commit queue full")

const frameHeader = 8 // u32le length + u32le CRC32C

// quarantineSuffix is appended to files Open moves aside instead of
// deleting: recovery must never destroy bytes it did not itself write.
const quarantineSuffix = ".quarantined"

// Manifest describes one sealed epoch. Its valid presence on disk is what
// seals the epoch.
type Manifest struct {
	// Seq is the 1-based epoch sequence number.
	Seq uint64 `json:"seq"`
	// Events and Requests count the epoch's trace events and REQ events.
	Events   int `json:"events"`
	Requests int `json:"requests"`
	// TraceDigest is trace.Trace.Digest over the sealed events, recomputed
	// and checked on every sealed read: it pins the trusted channel.
	TraceDigest string `json:"traceDigest"`
	// AdviceBytes is the size of the winning advice record (0 if the
	// server uploaded none).
	AdviceBytes int `json:"adviceBytes"`
	// TraceBytes is the byte length of the sealed trace file. The auditor
	// bounds its prefetch memory with it (plus AdviceBytes); manifests
	// written before this field existed carry 0, which readers treat as
	// "size unknown".
	TraceBytes int64 `json:"traceBytes,omitempty"`
	// LastRID is the RID of the epoch's last REQ event. The HTTP collector
	// assigns RIDs monotonically and recovers its counter from this field
	// on restart, so RIDs never repeat across epochs or incarnations.
	LastRID string `json:"lastRid,omitempty"`
	// Fresh marks an epoch whose serving runtime began with fresh
	// application state (a collector restart). It is recorded on the
	// trusted channel by the collector itself; an auditor must drop any
	// carried prior-epoch state before auditing a fresh epoch.
	Fresh bool `json:"fresh,omitempty"`
	// Degraded is non-empty when the collector knows this epoch's evidence
	// may be incomplete through no fault of the server — an advice-path
	// outage, a trace append that failed after its request was admitted, a
	// crash that orphaned the epoch mid-flight. The flag rides the trusted
	// channel: the auditor turns a rejection of a degraded epoch into an
	// Unauditable verdict instead of an accusation.
	Degraded string `json:"degraded,omitempty"`
}

// Options bound what replaying the log may allocate.
type Options struct {
	// MaxAdviceBytes caps a single advice record on append and on replay
	// (mirror verifier.Limits.MaxAdviceBytes); 0 is unbounded.
	MaxAdviceBytes int
	// FS is the I/O layer the log reads and writes through; nil means the
	// real filesystem (iofault.OS). Fault-injection harnesses pass an
	// *iofault.Injector.
	FS iofault.FS
	// GroupCommit starts a commit-queue goroutine that coalesces
	// AppendEventDurable calls into amortized batch fsyncs (one fsync per
	// batch rather than per frame). Off by default: the legacy append path
	// and its call-count fault semantics are unchanged unless opted in.
	GroupCommit bool
	// MaxBatchFrames caps how many frames one group-commit batch carries
	// (default 512).
	MaxBatchFrames int
	// CommitQueue caps enqueued-but-uncommitted durable appends (default
	// 4096). A full queue refuses with ErrCommitQueueFull rather than
	// queueing unboundedly.
	CommitQueue int
	// Backoff bounds the committer's retries of transient write faults.
	Backoff fault.Backoff
}

// fs resolves the configured I/O layer.
func (o Options) fs() iofault.FS {
	if o.FS == nil {
		return iofault.OS
	}
	return o.FS
}

// Log is the writer handle: one process appends and seals. Reading sealed
// epochs needs no Log — see ListSealed and ReadSealed.
type Log struct {
	dir string
	opt Options
	fs  iofault.FS

	mu     sync.Mutex
	sealed []Manifest
	active uint64 // seq of the epoch being written

	traceF  iofault.File
	adviceF iofault.File

	events      int
	requests    int
	digest      hash.Hash
	written     int64  // intact bytes of the active trace file (counted frames only)
	tailBroken  bool   // a torn tail repair failed; repair again before the next write
	adviceBytes int    // size of the last intact advice record
	lastRID     string // RID of the active epoch's last REQ event
	fresh       bool   // active epoch began with fresh application state
	degraded    string // why the active epoch's evidence may be incomplete
	closed      bool

	// pending holds epochs rotated out of the active slot (Rotate) whose
	// durable seal has not finished yet (FinishSeals); sealMu serializes
	// seal completion so manifests land strictly in epoch order.
	pending []*pendingSeal
	sealMu  sync.Mutex

	// commitCh feeds the group-commit goroutine (nil unless
	// Options.GroupCommit; set once in Open, immutable after). Enqueues
	// deliberately avoid l.mu — the committer holds l.mu for a whole batch
	// commit, and an enqueue that waited on it would turn the bounded
	// queue into unbounded mutex blocking. commitMu only fences enqueues
	// against Close closing the channel; commitWG tracks the goroutine.
	commitCh     chan *commitWaiter
	commitMu     sync.RWMutex
	commitClosed bool
	commitWG     sync.WaitGroup
}

// pendingSeal is an epoch whose accounting is frozen (Rotate snapshotted
// its manifest) but whose data fsync + manifest write are still owed.
type pendingSeal struct {
	m       Manifest
	traceF  iofault.File
	adviceF iofault.File
}

func tracePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d.trace", seq))
}
func advicePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d.advice", seq))
}
func manifestPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d.manifest", seq))
}
func freshPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ep%06d.fresh", seq))
}

// Open opens (creating if needed) the log in dir and recovers from any
// torn state: the longest contiguous prefix of validly sealed epochs is
// adopted, the next epoch becomes active with torn frame tails truncated
// off its data files, and stray files beyond it are removed.
func Open(dir string, opt Options) (*Log, error) {
	fsys := opt.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("epochlog: %w", err)
	}
	sealed, err := ListSealedFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, fs: fsys, sealed: sealed, active: uint64(len(sealed)) + 1}

	// A crash between Rotate and FinishSeals leaves whole epochs with
	// durable data but no manifest, and the successor epoch already
	// accumulating frames. Walk the contiguous chain of data-bearing epochs
	// starting at the first unsealed one: every epoch in the chain except
	// the last gets recovery-sealed below; the last becomes active again.
	chainEnd := l.active
	for {
		ok, err := hasIntactFrames(fsys, tracePath(dir, chainEnd+1))
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		chainEnd++
	}

	// Recovery must never destroy audit evidence. A *valid* manifest past
	// the contiguous sealed prefix means a gap — one corrupted manifest in
	// the middle of otherwise-intact history — so refuse to open rather
	// than touch the still-verifiable epochs beyond it. Everything else
	// past the prefix (data files of epochs beyond the recoverable chain,
	// a torn manifest at or past the active epoch) is unreachable garbage
	// from a crashed seal: move it aside with a .quarantined suffix, never
	// delete it.
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("epochlog: %w", err)
	}
	var strays []string
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, quarantineSuffix) {
			continue
		}
		var seq uint64
		var kind string
		//karousos:errladder-ok parse-or-skip; a non-matching filename is not an epoch file, the n != 2 check covers it
		if n, _ := fmt.Sscanf(name, "ep%d.%s", &seq, &kind); n != 2 {
			continue
		}
		if kind == "manifest" && seq > l.active {
			_, ok, merr := readManifest(fsys, dir, seq)
			if merr != nil {
				return nil, fmt.Errorf("epochlog: checking manifest %d: %w", seq, merr)
			}
			if ok {
				return nil, fmt.Errorf("epochlog: sealed epoch %d exists beyond a gap at epoch %d; refusing to open rather than discard audit evidence", seq, l.active)
			}
		}
		if seq > chainEnd || (seq >= l.active && kind == "manifest") {
			strays = append(strays, name)
		}
	}
	for _, name := range strays {
		from := filepath.Join(dir, name)
		if err := fsys.Rename(from, from+quarantineSuffix); err != nil {
			return nil, fmt.Errorf("epochlog: quarantining %s: %w", name, err)
		}
	}

	// Seal the chain's non-final epochs from their on-disk frames alone.
	// Group-commit acks are durable, so every frame a client was ever told
	// about is in those files; the epochs seal degraded because advice that
	// was never uploaded (or synced) is gone for good.
	for l.active < chainEnd {
		m, err := recoverySeal(fsys, dir, l.active)
		if err != nil {
			return nil, err
		}
		l.sealed = append(l.sealed, *m)
		l.active++
	}

	if err := l.openActive(); err != nil {
		return nil, err
	}
	if opt.GroupCommit {
		if l.opt.MaxBatchFrames <= 0 {
			l.opt.MaxBatchFrames = 512
		}
		if l.opt.CommitQueue <= 0 {
			l.opt.CommitQueue = 4096
		}
		l.commitCh = make(chan *commitWaiter, l.opt.CommitQueue)
		l.commitWG.Add(1)
		go l.committer()
	}
	return l, nil
}

// hasIntactFrames reports whether path exists and holds at least one intact
// frame. A missing file, or one holding only a torn tail, is "no".
func hasIntactFrames(fsys iofault.FS, path string) (bool, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("epochlog: %w", err)
	}
	_, payload := nextFrame(data, 0, 0)
	return payload != nil, nil
}

// openActive recovers the active epoch's data files — truncating torn
// tails, recomputing counters and the running digest — and opens them for
// appending. Caller holds no lock (Open) or l.mu (Seal).
func (l *Log) openActive() error {
	l.events, l.requests, l.adviceBytes, l.lastRID, l.degraded = 0, 0, 0, "", ""
	l.written, l.tailBroken = 0, false
	l.digest = sha256.New()
	_, statErr := l.fs.Stat(freshPath(l.dir, l.active))
	l.fresh = statErr == nil

	tp := tracePath(l.dir, l.active)
	if err := truncateTorn(l.fs, tp); err != nil {
		return err
	}
	if err := scanFrames(l.fs, tp, 0, func(payload []byte) error {
		e, err := trace.DecodeEventBinary(payload, nil)
		if err != nil {
			return fmt.Errorf("epochlog: %s: recovered frame undecodable: %w", tp, err)
		}
		l.events++
		if e.Kind == trace.Req {
			l.requests++
			l.lastRID = e.RID
		}
		l.written += int64(frameHeader + len(payload))
		l.digest.Write(payload) //karousos:errladder-ok hash.Hash.Write is documented never to return an error
		return nil
	}); err != nil {
		return err
	}

	ap := advicePath(l.dir, l.active)
	if err := truncateTorn(l.fs, ap); err != nil {
		return err
	}
	if err := scanFrames(l.fs, ap, l.opt.MaxAdviceBytes, func(payload []byte) error {
		l.adviceBytes = len(payload)
		return nil
	}); err != nil {
		return err
	}

	var err error
	if l.traceF, err = l.fs.OpenFile(tp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	if l.adviceF, err = l.fs.OpenFile(ap, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		l.traceF.Close() //karousos:errladder-ok close-after-error cleanup; the open failure is the error that surfaces
		return fmt.Errorf("epochlog: %w", err)
	}
	return nil
}

// frame builds length|crc|payload as one buffer, so a torn write can only
// produce a tail the next Open truncates, never a misparse.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)
	return buf
}

// AppendEvent appends one trace event to the active epoch (trusted
// channel: only the collector in front of the server calls this).
func (l *Log) AppendEvent(e trace.Event) error {
	payload := trace.AppendEventBinary(nil, e)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("epochlog: log is closed")
	}
	if err := l.ensureTailLocked(); err != nil {
		return err
	}
	buf := frame(payload)
	if _, err := l.traceF.Write(buf); err != nil {
		// The write may have torn a partial frame onto the file. Cut back
		// to the counted length now, so a retried append cannot strand its
		// frame behind an unreadable tail.
		if terr := l.repairTailLocked(); terr != nil {
			l.tailBroken = true
		}
		return fmt.Errorf("epochlog: %w", err)
	}
	l.written += int64(len(buf))
	l.events++
	if e.Kind == trace.Req {
		l.requests++
		l.lastRID = e.RID
	}
	l.digest.Write(payload) //karousos:errladder-ok hash.Hash.Write is documented never to return an error
	return nil
}

// AppendAdvice appends one complete advice blob to the active epoch
// (untrusted channel: the server uploads here). Re-uploads are allowed;
// the last intact record wins at seal time.
func (l *Log) AppendAdvice(blob []byte) error {
	if l.opt.MaxAdviceBytes > 0 && len(blob) > l.opt.MaxAdviceBytes {
		return fmt.Errorf("epochlog: record of %d bytes, limit %d: %w", len(blob), l.opt.MaxAdviceBytes, ErrAdviceTooLarge)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("epochlog: log is closed")
	}
	if _, err := l.adviceF.Write(frame(blob)); err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	l.adviceBytes = len(blob)
	return nil
}

// ActiveEvents returns the number of events (and REQ events) accumulated
// in the active epoch.
func (l *Log) ActiveEvents() (events, requests int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events, l.requests
}

// ActiveSeq returns the active epoch's sequence number.
func (l *Log) ActiveSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active
}

// ActiveLastRID returns the RID of the active epoch's last REQ event,
// recovered events included; "" when the epoch has none.
func (l *Log) ActiveLastRID() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastRID
}

// MarkFresh records that the active epoch's serving runtime started from
// fresh application state; the flag lands in the epoch's manifest at seal
// and clears once the next epoch begins. The mark is made durable as a
// per-epoch marker file, so a crash before the seal cannot lose it — a
// lost mark would make the auditor carry stale prior-epoch state into an
// epoch that was actually served fresh.
func (l *Log) MarkFresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("epochlog: log is closed")
	}
	if err := l.fs.WriteFile(freshPath(l.dir, l.active), nil, 0o644); err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	_ = l.fs.SyncDir(l.dir) //karousos:errladder-ok best-effort; the fresh flag is re-derived on restart
	l.fresh = true
	return nil
}

// MarkDegraded flags the active epoch's evidence as possibly incomplete for
// an infrastructure reason — an advice-path outage, a failed trace append
// after the request was admitted, a recovered crash. The first reason
// sticks; the flag lands in the manifest at seal and clears when the next
// epoch begins. Unlike Fresh there is no durable marker: a crash before the
// seal orphans the epoch, and recovery marks orphaned epochs degraded
// anyway.
func (l *Log) MarkDegraded(reason string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded == "" {
		l.degraded = reason
	}
}

// Degraded reports the active epoch's degradation reason ("" when none).
func (l *Log) Degraded() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// manifestLocked snapshots the active epoch's accounting as a manifest.
// Caller holds l.mu.
func (l *Log) manifestLocked() Manifest {
	return Manifest{
		Seq:         l.active,
		Events:      l.events,
		Requests:    l.requests,
		TraceDigest: fmt.Sprintf("%x", l.digest.Sum(nil)),
		AdviceBytes: l.adviceBytes,
		TraceBytes:  l.written,
		LastRID:     l.lastRID,
		Fresh:       l.fresh,
		Degraded:    l.degraded,
	}
}

// writeManifestDurable writes and fsyncs one epoch's manifest, then fsyncs
// the directory. The manifest's presence IS the seal, so a manifest that
// failed partway is removed — one must never survive a seal that did not
// complete, and without a durable directory entry it could vanish on power
// loss while later epochs accumulate, leaving a gap recovery refuses.
func writeManifestDurable(fsys iofault.FS, dir string, m Manifest) error {
	mj, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	mp := manifestPath(dir, m.Seq)
	mf, err := fsys.OpenFile(mp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	abort := func(stage string, err error) error {
		_ = fsys.Remove(mp) //karousos:errladder-ok best-effort cleanup of a failed seal; the staged error surfaces via abort
		return fmt.Errorf("epochlog: sealing epoch %d: %s: %w", m.Seq, stage, err)
	}
	if _, err := mf.Write(frame(mj)); err != nil {
		mf.Close() //karousos:errladder-ok close-after-error; the manifest write error is the one that surfaces
		return abort("manifest write", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close() //karousos:errladder-ok close-after-error; the manifest fsync error is the one that surfaces
		return abort("manifest fsync", err)
	}
	if err := mf.Close(); err != nil {
		return abort("manifest close", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return abort("directory fsync", err)
	}
	return nil
}

// Seal durably closes the active epoch: data files are fsynced, the
// manifest (carrying the trace digest) is written and fsynced, and a fresh
// active epoch begins. Sealing an epoch with no events is a no-op.
//
// A failed seal leaves the log fully usable: the data handles stay open
// until the manifest is durable, and a manifest that failed partway is
// removed — the manifest's presence IS the seal, so one must never survive
// a seal that did not complete. Appends may continue and Seal may be
// retried. When the manifest is durable but rotating to the next epoch
// fails, Seal returns the manifest *and* an error: the epoch is sealed,
// the log is closed.
func (l *Log) Seal() (*Manifest, error) {
	l.sealMu.Lock()
	defer l.sealMu.Unlock()
	// Earlier rotated-out epochs must seal first: manifests land strictly
	// in epoch order so the sealed prefix never has a gap.
	if _, err := l.finishPending(); err != nil { //karousos:locklint-ok sealMu exists to serialize seal durability work; finishPending fsyncs old epochs without l.mu so appends proceed
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, errors.New("epochlog: log is closed")
	}
	// A seal linearizes after every append already accepted into the
	// group-commit queue: commit the stragglers into this epoch now.
	l.drainCommitQueueLocked() //karousos:locklint-ok seal linearization: stragglers must commit into this epoch before the boundary; arrivals queue on commitCh, not l.mu
	if l.events == 0 {
		return nil, nil
	}
	for _, f := range []iofault.File{l.traceF, l.adviceF} {
		if err := f.Sync(); err != nil { //karousos:locklint-ok seal linearization point: no append may land between the drained queue and the manifest, so the data fsync holds l.mu by design
			return nil, fmt.Errorf("epochlog: sealing epoch %d: data fsync: %w", l.active, err)
		}
	}
	m := l.manifestLocked()
	if err := writeManifestDurable(l.fs, l.dir, m); err != nil { //karousos:locklint-ok the manifest IS the seal; it must be durable before any post-seal append is accepted
		return nil, err
	}
	// The epoch is sealed. Release the data handles (close errors after a
	// successful fsync carry no durability information) and clean up the
	// fresh marker: the manifest durably records Fresh now.
	_ = l.traceF.Close()                     //karousos:errladder-ok close after successful fsync carries no durability information
	_ = l.adviceF.Close()                    //karousos:errladder-ok close after successful fsync carries no durability information
	_ = l.fs.Remove(freshPath(l.dir, m.Seq)) //karousos:errladder-ok best-effort; the sealed manifest now records Fresh durably

	l.sealed = append(l.sealed, m)
	l.active++
	if err := l.openActive(); err != nil {
		// The manifest is durable: the epoch IS sealed even though the log
		// cannot rotate to the next one. Return the manifest with the error
		// so callers don't mistake a rotation failure for a failed seal.
		l.closed = true
		return &m, fmt.Errorf("epochlog: epoch %d sealed but rotating to epoch %d failed (log closed): %w", m.Seq, l.active, err)
	}
	return &m, nil
}

// Sealed returns the manifests of all sealed epochs in order.
func (l *Log) Sealed() []Manifest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Manifest(nil), l.sealed...)
}

// Close releases the active epoch's file handles without sealing; the
// unsealed tail — including any rotated-but-unfinished epochs — is
// recovered by the next Open. Durable appends already accepted into the
// group-commit queue are committed (or honestly failed) before the files
// close: an enqueued waiter is never left hanging.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.commitCh != nil {
		l.commitMu.Lock()
		l.commitClosed = true
		close(l.commitCh)
		l.commitMu.Unlock()
		l.commitWG.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err1 := l.traceF.Close()
	err2 := l.adviceF.Close()
	for _, ps := range l.pending {
		_ = ps.traceF.Close()  //karousos:errladder-ok close-on-shutdown; the epoch is recovery-sealed by the next Open
		_ = ps.adviceF.Close() //karousos:errladder-ok close-on-shutdown; the epoch is recovery-sealed by the next Open
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// truncateTorn cuts a data file back to its longest prefix of intact
// frames. A missing file is fine (zero-length epoch so far).
func truncateTorn(fsys iofault.FS, path string) error {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	good := 0
	off := 0
	for {
		n, payload := nextFrame(data, off, 0)
		if payload == nil {
			break
		}
		off += n
		good = off
	}
	if good == len(data) {
		return nil
	}
	return fsys.Truncate(path, int64(good))
}

// nextFrame parses one frame at off. It returns the frame's total size and
// payload, or (0, nil) when the remainder is empty, torn, or corrupt. A
// positive maxPayload also rejects over-large declared lengths before any
// allocation (untrusted-channel clamp).
func nextFrame(data []byte, off, maxPayload int) (int, []byte) {
	rest := data[off:]
	if len(rest) < frameHeader {
		return 0, nil
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if maxPayload > 0 && n > maxPayload {
		return 0, nil
	}
	if n > len(rest)-frameHeader {
		return 0, nil
	}
	payload := rest[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
		return 0, nil
	}
	return frameHeader + n, payload
}

// scanFrames streams every intact frame of a file to fn, stopping at the
// first torn or corrupt one. A missing file yields no frames.
func scanFrames(fsys iofault.FS, path string, maxPayload int, fn func(payload []byte) error) error {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	off := 0
	for {
		n, payload := nextFrame(data, off, maxPayload)
		if payload == nil {
			return nil
		}
		if err := fn(payload); err != nil {
			return err
		}
		off += n
	}
}

// readManifest loads and validates one epoch's manifest; ok is false when
// the file is missing, torn, or inconsistent with its name.
// readManifest loads and validates one manifest. ok=false with a nil
// error means the epoch is not validly sealed (absent or torn manifest);
// a non-nil error is an I/O failure that says nothing either way, which
// callers must surface rather than mistake for "unsealed" — truncating the
// sealed prefix on a transient read error would silently hide epochs from
// the auditor.
func readManifest(fsys iofault.FS, dir string, seq uint64) (Manifest, bool, error) {
	data, err := fsys.ReadFile(manifestPath(dir, seq))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	n, payload := nextFrame(data, 0, 0)
	if payload == nil || n != len(data) {
		return Manifest{}, false, nil
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil || m.Seq != seq || m.Events <= 0 {
		return Manifest{}, false, nil
	}
	return m, true, nil
}

// ListSealed returns the longest contiguous prefix (seq 1, 2, ...) of
// validly sealed epochs in dir. It takes no lock and mutates nothing, so a
// tailing auditor may call it while a collector owns the writer handle.
func ListSealed(dir string) ([]Manifest, error) {
	return ListSealedFS(iofault.OS, dir)
}

// ListSealedFS is ListSealed through an explicit I/O layer (nil = OS), for
// callers that read under fault injection or want reads retried.
func ListSealedFS(fsys iofault.FS, dir string) ([]Manifest, error) {
	if fsys == nil {
		fsys = iofault.OS
	}
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("epochlog: %w", err)
	}
	var seqs []uint64
	for _, ent := range entries {
		var seq uint64
		var kind string
		//karousos:errladder-ok parse-or-skip; a non-matching filename is not a manifest, the n == 2 check covers it
		if n, _ := fmt.Sscanf(ent.Name(), "ep%d.%s", &seq, &kind); n == 2 && kind == "manifest" {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var out []Manifest
	for i, seq := range seqs {
		if seq != uint64(i)+1 {
			break
		}
		m, ok, err := readManifest(fsys, dir, seq)
		if err != nil {
			return nil, fmt.Errorf("epochlog: %w", err)
		}
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out, nil
}

// ReadSealed loads one sealed epoch: the trace (every frame must be intact
// and the recomputed digest must match the manifest — the trusted channel
// does not tolerate corruption; its frames share one value.Interner, since
// every rid appears twice and inputs repeat their keys) and the winning
// advice blob (nil when none was uploaded; undecodable contents are the
// audit's concern, not ours).
func ReadSealed(dir string, seq uint64, opt Options) (*trace.Trace, []byte, *Manifest, error) {
	fsys := opt.fs()
	m, ok, err := readManifest(fsys, dir, seq)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("epochlog: epoch %d manifest: %w", seq, err)
	}
	if !ok {
		return nil, nil, nil, fmt.Errorf("epochlog: epoch %d is not sealed in %s", seq, dir)
	}
	tr := &trace.Trace{}
	h := sha256.New()
	var in value.Interner
	if err := scanFrames(fsys, tracePath(dir, seq), 0, func(payload []byte) error {
		e, err := trace.DecodeEventBinary(payload, &in)
		if err != nil {
			return fmt.Errorf("epochlog: epoch %d trace frame undecodable: %w", seq, err)
		}
		tr.Events = append(tr.Events, e)
		h.Write(payload) //karousos:errladder-ok hash.Hash.Write is documented never to return an error
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	if len(tr.Events) != m.Events {
		return nil, nil, nil, fmt.Errorf("epochlog: epoch %d trace has %d intact events, manifest says %d (trusted channel corrupt)",
			seq, len(tr.Events), m.Events)
	}
	if digest := fmt.Sprintf("%x", h.Sum(nil)); digest != m.TraceDigest {
		return nil, nil, nil, fmt.Errorf("epochlog: epoch %d trace digest %s does not match manifest %s (trusted channel corrupt)",
			seq, digest, m.TraceDigest)
	}
	var blob []byte
	if err := scanFrames(fsys, advicePath(dir, seq), opt.MaxAdviceBytes, func(payload []byte) error {
		blob = payload
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	if blob == nil && m.AdviceBytes > 0 {
		// The sealed advice file lost its intact records (on-disk
		// corruption of the untrusted channel). Surface whatever bytes
		// remain so the audit can reject them with a coded verdict instead
		// of us swallowing the epoch.
		raw, err := fsys.ReadFile(advicePath(dir, seq))
		if err == nil && len(raw) > frameHeader {
			limit := len(raw)
			if opt.MaxAdviceBytes > 0 && limit > frameHeader+opt.MaxAdviceBytes {
				limit = frameHeader + opt.MaxAdviceBytes
			}
			blob = raw[frameHeader:limit]
		}
	}
	return tr, blob, &m, nil
}
