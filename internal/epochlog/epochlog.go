// Package epochlog is the durable evidence store of the continuous-audit
// pipeline: an on-disk, segmented log of trace events and advice,
// partitioned into sealed epochs.
//
// Layout: each epoch seq owns three files in one directory —
//
//	ep%06d.trace    framed trace events (trusted channel)
//	ep%06d.advice   the epoch's one framed advice record (untrusted channel)
//	ep%06d.manifest one framed JSON Manifest; its presence seals the epoch
//
// Every record is framed as u32le(payload length) | u32le(CRC32C(payload))
// | payload. Trace frames each carry one canonically-encoded trace event
// (internal/trace's binary codec), so the manifest's trace digest is
// recomputable from segment payloads alone. An epoch's advice record, one
// complete serialized advice blob, stays in memory until the seal's durable
// half writes it as the whole advice file, fsynced. The manifest is written
// and fsynced only after its data files are fsynced, so a sealed epoch's
// contents are durable before the seal itself is.
//
// Crash recovery (Open) adopts the longest contiguous prefix of validly
// sealed epochs, truncates a torn tail off the successor's trace file, and
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
	"slices"
	"sort"
	"strings"
	"sync"

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
	// AdviceBytes is the length of the advice record the seal wrote (0 if
	// the epoch had none, or lost it).
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

	traceF iofault.File

	events     int
	requests   int
	digest     hash.Hash
	written    int64  // intact bytes of the active trace file (counted frames only)
	tailBroken bool   // a torn tail repair failed; repair again before the next write
	advice     []byte // the active epoch's advice record (nil: none yet)
	lastRID    string // RID of the active epoch's last REQ event
	fresh      bool   // active epoch began with fresh application state
	degraded   string // why the active epoch's evidence may be incomplete
	closed     bool

	// pending holds epochs rotated out of the active slot (Rotate) whose
	// durable seal has not finished yet (FinishSeals); sealMu serializes
	// seal completion so manifests land strictly in epoch order.
	pending []*pendingSeal
	sealMu  sync.Mutex

	// commitCh feeds the group-commit goroutine (set once in Open,
	// immutable after). Enqueues deliberately avoid l.mu — the committer
	// holds l.mu for a whole batch commit, and an enqueue that waited on it
	// would turn the bounded queue into unbounded mutex blocking. commitMu
	// only fences enqueues against Close closing the channel; commitWG
	// tracks the goroutine.
	commitCh     chan *commitWaiter
	commitMu     sync.RWMutex
	commitClosed bool
	commitWG     sync.WaitGroup
}

// pendingSeal is an epoch whose accounting is frozen (Rotate snapshotted
// its manifest) but whose durable half is still owed.
type pendingSeal struct {
	m      Manifest
	traceF iofault.File
	advice []byte
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
// adopted, a chain of data-bearing epochs a crash left unsealed is sealed
// degraded up to its last epoch, which becomes active with a torn frame
// tail truncated off its trace file, and stray files beyond it are
// quarantined. A failed recovery closes every handle it opened.
func Open(dir string, opt Options) (*Log, error) {
	fsys := opt.fs()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("epochlog: %w", err)
	}
	sealed, err := ListSealedFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir: dir, opt: opt, fs: fsys, sealed: sealed, active: uint64(len(sealed)) + 1,
		commitCh: make(chan *commitWaiter, commitQueue),
	}

	// A crash between Rotate and FinishSeals leaves whole epochs with
	// durable data but no manifest, and the successor epoch already
	// accumulating frames. Walk the contiguous chain of data-bearing epochs
	// starting at the first unsealed one: every epoch in the chain except
	// the last gets sealed below; the last becomes active again.
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
		// parse-or-skip; a non-matching filename is not an epoch file, the n != 2 check covers it
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

	if err := l.openActive(); err != nil {
		return nil, err
	}
	if err := l.sealChain(chainEnd); err != nil {
		return nil, errors.Join(err, l.closeFiles())
	}
	l.commitWG.Add(1)
	go l.committer()
	return l, nil
}

// sealChain seals the chain's non-final epochs, l.active up to chainEnd,
// through the live seal path: each is recovered from its files as the
// active epoch, flagged degraded and rotated out, and FinishSeals seals
// them in order. Group-commit acks are durable, so every frame a client
// was ever told about is in those files; the epochs seal degraded because
// advice that was never synced is gone for good.
func (l *Log) sealChain(chainEnd uint64) error {
	for l.active < chainEnd {
		l.MarkDegraded("sealed by crash recovery: collector stopped before finishing this epoch's seal")
		seq, err := l.Rotate()
		if err != nil {
			return err
		}
		if seq == 0 {
			return fmt.Errorf("epochlog: recovering epoch %d: no intact frames", l.active)
		}
	}
	_, err := l.FinishSeals()
	return err
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

// openActive recovers the active epoch — cutting a torn trace tail,
// recomputing counters and the running digest, adopting an advice record a
// crashed seal left whole — and opens its trace file for appending. Caller
// holds no lock (Open) or l.mu (Rotate).
func (l *Log) openActive() error {
	l.events, l.requests, l.advice, l.lastRID, l.degraded = 0, 0, nil, "", ""
	l.written, l.tailBroken = 0, false
	l.digest = sha256.New()
	_, statErr := l.fs.Stat(freshPath(l.dir, l.active))
	l.fresh = statErr == nil

	tp := tracePath(l.dir, l.active)
	torn, err := scanFrames(l.fs, tp, 0, func(payload []byte) error {
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
		l.digest.Write(payload) // hash.Hash.Write is documented never to return an error
		return nil
	})
	if err != nil {
		return err
	}
	if torn {
		if err := l.fs.Truncate(tp, l.written); err != nil {
			return fmt.Errorf("epochlog: %w", err)
		}
	}
	if _, err := scanFrames(l.fs, advicePath(l.dir, l.active), l.opt.MaxAdviceBytes, func(payload []byte) error {
		l.advice = payload
		return nil
	}); err != nil {
		return err
	}
	if l.traceF, err = l.fs.OpenFile(tp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
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
	l.digest.Write(payload) // hash.Hash.Write is documented never to return an error
	return nil
}

// adviceLost prefixes the Degraded reason of an epoch whose record is lost.
const adviceLost = "advice lost at seal: "

// AppendAdvice binds blob as the active epoch's advice record (untrusted
// channel): SetAdvice for the epoch being written.
func (l *Log) AppendAdvice(blob []byte) error {
	return l.SetAdvice(l.ActiveSeq(), blob)
}

// SetAdvice binds blob as the advice record of epoch seq — the active
// epoch, or one Rotate cut whose seal has not finished — replacing any
// record it had. The log keeps blob, unchanged by the caller, until the
// seal's durable half writes it. A record over MaxAdviceBytes is dropped:
// the epoch seals Degraded without advice, and the error says why.
func (l *Log) SetAdvice(seq uint64, blob []byte) error {
	var lost error
	if l.opt.MaxAdviceBytes > 0 && len(blob) > l.opt.MaxAdviceBytes {
		lost = fmt.Errorf("epochlog: record of %d bytes, limit %d: %w", len(blob), l.opt.MaxAdviceBytes, ErrAdviceTooLarge)
		blob = nil
	}
	// sealMu orders the call before or after the epoch's whole durable half.
	l.sealMu.Lock()
	defer l.sealMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, degraded := &l.advice, &l.degraded
	if seq != l.active {
		i := slices.IndexFunc(l.pending, func(ps *pendingSeal) bool { return ps.m.Seq == seq })
		if i < 0 {
			return fmt.Errorf("epochlog: epoch %d is neither active nor awaiting its seal", seq)
		}
		rec, degraded = &l.pending[i].advice, &l.pending[i].m.Degraded
	}
	*rec = blob
	if lost != nil && *degraded == "" {
		*degraded = adviceLost + lost.Error()
	}
	return lost
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
	_ = l.fs.SyncDir(l.dir) // best-effort; the fresh flag is re-derived on restart
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
	if err = iofault.WriteFileSync(fsys, mp, frame(mj)); err != nil {
		err = fmt.Errorf("manifest %w", err)
	} else if err = fsys.SyncDir(dir); err != nil {
		err = fmt.Errorf("directory fsync: %w", err)
	}
	if err != nil {
		_ = fsys.Remove(mp) // best-effort cleanup of a failed seal; the staged error surfaces
		return fmt.Errorf("epochlog: sealing epoch %d: %w", m.Seq, err)
	}
	return nil
}

// Seal durably closes the active epoch: Rotate, then FinishSeals. It
// returns the last manifest it sealed, nil when the active epoch was empty
// and nothing was pending.
//
// A failed Seal leaves the log usable. A failed rotation rolls back before
// anything is durable: the epoch stays active. A failed durable half leaves
// the epoch pending (rotated out, no manifest): appends land in the next
// epoch, and a retried Seal seals both, in order.
func (l *Log) Seal() (*Manifest, error) {
	if _, err := l.Rotate(); err != nil {
		return nil, err
	}
	return l.FinishSeals()
}

// Sealed returns the manifests of all sealed epochs in order.
func (l *Log) Sealed() []Manifest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Manifest(nil), l.sealed...)
}

// SealedCount returns how many epochs are sealed. Sealed epochs are seq 1
// through the count, so it is also the newest sealed seq (0 when none).
func (l *Log) SealedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)
}

// Close releases the active epoch's file handles without sealing; the
// unsealed tail, including any rotated-but-unfinished epochs, is recovered
// by the next Open. Every advice record still held in memory is first
// written whole, best-effort, as its epoch's advice file, where recovery
// adopts it: the epoch then seals with the record it had instead of
// without one. Durable appends already accepted into the group-commit
// queue are committed (or honestly failed) before the files close: an
// enqueued waiter is never left hanging.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.commitMu.Lock()
	l.commitClosed = true
	close(l.commitCh)
	l.commitMu.Unlock()
	l.commitWG.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ps := range l.pending {
		l.keepAdvice(ps.m.Seq, ps.advice)
	}
	l.keepAdvice(l.active, l.advice)
	return l.closeFiles()
}

// keepAdvice writes epoch seq's in-memory advice record as its advice file
// for the next Open to adopt. Best-effort: a record that does not land
// leaves the epoch to seal without advice, as it would have anyway.
func (l *Log) keepAdvice(seq uint64, rec []byte) {
	if rec != nil {
		_ = iofault.WriteFileSync(l.fs, advicePath(l.dir, seq), frame(rec)) // best-effort, see above
	}
}

// closeFiles releases the active epoch's trace handle and every pending
// epoch's.
func (l *Log) closeFiles() error {
	for _, ps := range l.pending {
		_ = ps.traceF.Close() // close-on-shutdown; the epoch is recovery-sealed by the next Open
	}
	return l.traceF.Close()
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
// first torn or corrupt one, and reports whether bytes follow the intact
// frames (a tail to cut). A missing file yields no frames.
func scanFrames(fsys iofault.FS, path string, maxPayload int, fn func(payload []byte) error) (bool, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("epochlog: %w", err)
	}
	off := 0
	for {
		n, payload := nextFrame(data, off, maxPayload)
		if payload == nil {
			return off < len(data), nil
		}
		if err := fn(payload); err != nil {
			return false, err
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
		// parse-or-skip; a non-matching filename is not a manifest, the n == 2 check covers it
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
// every rid appears twice and inputs repeat their keys) and the advice
// record (nil when the epoch has none; undecodable contents are the
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
	if _, err := scanFrames(fsys, tracePath(dir, seq), 0, func(payload []byte) error {
		e, err := trace.DecodeEventBinary(payload, &in)
		if err != nil {
			return fmt.Errorf("epochlog: epoch %d trace frame undecodable: %w", seq, err)
		}
		tr.Events = append(tr.Events, e)
		h.Write(payload) // hash.Hash.Write is documented never to return an error
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
	if _, err := scanFrames(fsys, advicePath(dir, seq), opt.MaxAdviceBytes, func(payload []byte) error {
		blob = payload
		return nil
	}); err != nil {
		return nil, nil, nil, err
	}
	if blob == nil && m.AdviceBytes > 0 {
		// The sealed advice file lost its intact record (on-disk
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
