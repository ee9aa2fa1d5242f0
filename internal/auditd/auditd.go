// Package auditd is the incremental auditor: it tails an epoch log while a
// collector is still serving, audits each sealed epoch in order, and
// carries the verifier's dictionary state across epoch boundaries so a
// long-running server is audited piecewise with the same verdict a
// monolithic audit would reach.
//
// Ordering is semantic, not cosmetic: epoch k's audit needs the carry
// produced by epoch k-1's accepting audit, so audits run strictly in
// sequence. The worker pool prefetches upcoming epochs concurrently — reads
// and integrity-checks the trace, and decodes the advice — so that the
// in-order loop spends its time auditing: reading is where the wall-clock
// time goes for I/O-bound logs, and decoding is about a third of a
// write-heavy epoch's CPU.
//
// The auditor checkpoints (last accepted epoch, carry state) after every
// accept. A restarted auditor resumes from the checkpoint without
// re-auditing accepted epochs; the checkpoint is the auditor's own prior
// verdict, so trusting it is trusting itself.
package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
)

// Config describes one auditor instance.
type Config struct {
	// Dir is the epoch log directory to tail.
	Dir string
	// Spec is the application to re-execute. When its Name is empty the
	// auditor resolves the app from the directory's meta.json sidecar.
	Spec harness.AppSpec
	// Limits bounds each epoch's audit; the zero value is unbounded.
	Limits verifier.Limits
	// Checkpoint is the path of the resume file. Empty keeps the cursor in
	// memory only.
	Checkpoint string
	// Workers bounds concurrent epoch prefetches. Defaults to 2.
	Workers int
	// MaxPrefetchBytes bounds the estimated bytes of fetched-but-unaudited
	// epochs resident at once (manifest TraceBytes + AdviceBytes; a
	// prefetched epoch holds its advice decoded, and the wire advice is a
	// deflated frame, so the decoded advice is tens of times its wire size:
	// the bound is on the wire estimate, not the heap). The count window
	// alone is not enough: 2×Workers epochs of a byte-heavy workload can
	// dwarf the count bound. At least one epoch is always in flight, so an
	// oversized epoch stalls the window instead of wedging it. <=0 means
	// 256 MiB.
	MaxPrefetchBytes int64
	// AuditWorkers is each epoch audit's parallelism (verifier.Config.
	// Workers): 0 means GOMAXPROCS, 1 forces the sequential engine. The
	// verdict is identical at every setting.
	AuditWorkers int
	// MemoMaxBytes enables the cross-epoch re-execution memo cache
	// (DESIGN.md §18) with the given byte budget; 0 disables memoization.
	// The cache lives as long as the auditor and, like the carry, is
	// dropped at Fresh manifest boundaries. It is purely a performance
	// lever: verdicts, reject codes, and non-memo Stats are identical with
	// it on or off.
	MemoMaxBytes int
	// GraphDir, when set, is an existing directory that receives the
	// execution graph G of every epoch the verifier builds one for, as
	// Graphviz DOT (epNNNNNN.dot, cycles highlighted on a GraphCycle
	// rejection). Empty writes nothing.
	GraphDir string
	// FS is the filesystem the auditor reads epochs and writes checkpoints
	// and graphs through. nil means the real OS.
	FS iofault.FS
	// OnVerdict, when set, is called with every verdict as it is reached —
	// accepted, rejected, or unauditable. Called without the auditor's lock.
	OnVerdict func(Verdict)
	// routing, set by a Sharded lane, checks that an epoch's trace holds
	// only requests the shard map routes to this lane's shard.
	routing func(*trace.Trace) error
}

func (cfg Config) fs() iofault.FS {
	if cfg.FS == nil {
		return iofault.OS
	}
	return cfg.FS
}

// Reject is a machine-readable audit rejection: which epoch failed, the
// coded reason, and the human-readable detail.
type Reject struct {
	Epoch  uint64          `json:"epoch"`
	Code   core.RejectCode `json:"code"`
	Reason string          `json:"reason"`
}

func (r *Reject) Error() string {
	return fmt.Sprintf("auditd: epoch %d rejected: %s: %s", r.Epoch, r.Code, r.Reason)
}

// Verdict is one graded epoch. Code "" means accepted,
// core.RejectUnauditable means the epoch could not be graded either way,
// and any other code is a rejection the server must answer for.
type Verdict struct {
	Epoch  uint64          `json:"epoch"`
	Code   core.RejectCode `json:"code,omitempty"`
	Reason string          `json:"reason,omitempty"`
}

// Accepted reports whether this verdict cleared the epoch.
func (v Verdict) Accepted() bool { return v.Code == "" }

// Status is the auditor's observable state.
type Status struct {
	// LastAccepted is the newest epoch whose audit accepted.
	LastAccepted uint64 `json:"lastAccepted"`
	// LastProcessed is the newest epoch graded at all — accepted or
	// unauditable. A rejection halts the auditor, so processing never
	// advances past a rejected epoch.
	LastProcessed uint64        `json:"lastProcessed"`
	Accepted      int           `json:"accepted"`
	Rejected      int           `json:"rejected"`
	Unauditable   int           `json:"unauditable"`
	LastAudit     time.Duration `json:"lastAuditNanos"`
	TotalAudit    time.Duration `json:"totalAuditNanos"`
	// PeakPrefetchEpochs and PeakPrefetchBytes are the prefetch window's
	// high-water marks since this auditor started — the overload tests
	// assert boundedness against them.
	PeakPrefetchEpochs int   `json:"peakPrefetchEpochs,omitempty"`
	PeakPrefetchBytes  int64 `json:"peakPrefetchBytes,omitempty"`
	// Stats sums the verifier work counters of every accepted epoch this
	// instance audited. Deterministic in the evidence (unlike the latency
	// fields), so the sharded differential tests compare it bit-for-bit
	// across lane counts.
	Stats verifier.Stats `json:"stats"`
}

// MemoCounters is the memo cache's observable traffic: cumulative hit,
// miss, and eviction counts across this auditor's accepted epochs. It rides
// the checkpoint so `karousos status` can report warm-cache behavior
// without an RPC to the auditor process.
type MemoCounters struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions,omitempty"`
}

// checkpoint is the resume file's schema. The carry is the dictionary state
// the next epoch's audit starts from; it came out of this auditor's own
// accepting audit, so it shares the trace's trust level. Files written
// before LastProcessed/Unauditable existed decode with both zero; loading
// normalizes LastProcessed up to LastAccepted. Memo is advisory telemetry,
// never read back into audit state.
type checkpoint struct {
	LastAccepted  uint64               `json:"lastAccepted"`
	LastProcessed uint64               `json:"lastProcessed,omitempty"`
	Unauditable   bool                 `json:"unauditable,omitempty"`
	Carry         *verifier.CarryState `json:"carry,omitempty"`
	Memo          *MemoCounters        `json:"memo,omitempty"`
}

// Auditor tails one epoch log.
type Auditor struct {
	cfg Config
	// memo is the cross-epoch re-execution cache, nil unless
	// Config.MemoMaxBytes is set. Only the in-order audit loop touches it,
	// so it needs no coordination beyond the cache's own lock.
	memo *memo.Cache

	mu    sync.Mutex
	carry *verifier.CarryState
	// unauditable marks the carry as unanchored: an earlier epoch graded
	// Unauditable, so epochs are graded Unauditable without auditing until
	// a Fresh manifest re-anchors at rebuilt state.
	unauditable bool
	status      Status
}

// New resolves the application, loads the checkpoint if one exists, and
// returns an auditor ready to run.
func New(cfg Config) (*Auditor, error) {
	if cfg.Spec.Name == "" {
		meta, err := collectorhttp.ReadMeta(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("auditd: no app configured and no readable sidecar: %w", err)
		}
		if cfg.Spec, err = harness.SpecByName(meta.App); err != nil {
			return nil, err
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxPrefetchBytes <= 0 {
		cfg.MaxPrefetchBytes = 256 << 20
	}
	a := &Auditor{cfg: cfg}
	if cfg.MemoMaxBytes > 0 {
		a.memo = memo.NewCache(cfg.MemoMaxBytes)
	}
	if cfg.Checkpoint != "" {
		var blob []byte
		err := iofault.Retry(context.Background(), func() error {
			var rerr error
			blob, rerr = cfg.fs().ReadFile(cfg.Checkpoint)
			return rerr
		})
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return nil, err
		default:
			var cp checkpoint
			if err := json.Unmarshal(blob, &cp); err != nil {
				// A checkpoint is only a cache of this auditor's own prior
				// verdicts: losing it costs re-auditing, never correctness.
				// Quarantine the corpse for diagnosis and start from zero —
				// crashing here would wedge the pipeline on a torn write.
				if qerr := cfg.fs().Rename(cfg.Checkpoint, cfg.Checkpoint+".corrupt"); qerr != nil {
					return nil, fmt.Errorf("auditd: corrupt checkpoint %s (quarantine also failed: %v): %w", cfg.Checkpoint, qerr, err)
				}
			} else {
				if cp.Carry != nil {
					cp.Carry.Normalize()
				}
				if cp.LastProcessed < cp.LastAccepted {
					cp.LastProcessed = cp.LastAccepted
				}
				a.status.LastAccepted = cp.LastAccepted
				a.status.LastProcessed = cp.LastProcessed
				a.unauditable = cp.Unauditable
				a.carry = cp.Carry
			}
		}
	}
	return a, nil
}

// Status returns a copy of the auditor's counters.
func (a *Auditor) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status
}

// Carry returns the auditor's current cross-epoch carry state — the
// verified server state after its newest accepting audit, or nil when
// there is none (nothing audited yet, or the run is unanchored). The
// sharded merge check reads it after a lane drains; callers must not
// mutate it while the auditor is still running.
func (a *Auditor) Carry() *verifier.CarryState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.carry
}

// Unanchored reports whether the auditor's carry is unknown because an
// epoch graded Unauditable and no Fresh manifest has re-anchored it yet.
func (a *Auditor) Unanchored() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.unauditable
}

// recordVerdict fires OnVerdict; callers have released the auditor's lock.
func (a *Auditor) recordVerdict(v Verdict) {
	if a.cfg.OnVerdict != nil {
		a.cfg.OnVerdict(v)
	}
}

// fetched is one prefetched epoch: the trace integrity-checked against its
// manifest and the advice already decoded, so neither read nor decode sits
// on the in-order audit's path.
type fetched struct {
	tr  *trace.Trace
	adv *advice.Advice
	// adviceErr is why the advice blob was refused — over the size limit or
	// undecodable. It is evidence, not a fetch failure: auditEpoch grades
	// it in order, at the point the blob used to be decoded.
	adviceErr error
	// err is an unreadable trusted channel, after retries.
	err error
}

// RunOnce grades every sealed epoch past the checkpoint, in order, and
// returns how many it graded (accepted or unauditable), even if a
// checkpoint write then failed. A rejection returns a *Reject error; an
// unreadable trusted channel (trace or manifest) returns an ordinary error
// after bounded retries, since that is infrastructure failure, not server
// misbehavior.
func (a *Auditor) RunOnce(ctx context.Context) (int, error) {
	var sealed []epochlog.Manifest
	err := iofault.Retry(ctx, func() error {
		var lerr error
		sealed, lerr = epochlog.ListSealedFS(a.cfg.fs(), a.cfg.Dir)
		return lerr
	})
	if err != nil {
		return 0, err
	}
	last := a.Status().LastProcessed
	var pending []epochlog.Manifest
	for _, m := range sealed {
		if m.Seq > last {
			pending = append(pending, m)
		}
	}
	if len(pending) == 0 {
		return 0, nil
	}

	// Prefetch pending epochs with the worker pool; audit strictly in
	// order as each becomes available. The look-ahead window bounds how
	// many fetched epochs can sit in memory waiting for the in-order
	// audit — without it, a large backlog (auditor restarted without its
	// checkpoint, long outage) would hold every pending epoch's trace and
	// advice resident at once. The window is bounded twice: by epoch count
	// (2×Workers) and by estimated bytes (MaxPrefetchBytes), since a
	// byte-heavy workload can dwarf the count bound. A slot stays claimed
	// until its epoch's audit finishes — the fetched trace and advice are
	// resident for exactly that long.
	opt := epochlog.Options{MaxAdviceBytes: a.cfg.Limits.MaxAdviceBytes, FS: a.cfg.FS}
	window := 2 * a.cfg.Workers
	est := func(m epochlog.Manifest) int64 {
		n := m.TraceBytes + int64(m.AdviceBytes)
		if n <= 0 {
			// Manifests sealed before sizes were recorded: assume 1 MiB so
			// old logs still prefetch with some look-ahead.
			n = 1 << 20
		}
		return n
	}
	results := make([]chan fetched, len(pending))
	for i := range pending {
		results[i] = make(chan fetched, 1)
	}
	// Workers take epochs in the order the window admits them, so the epoch
	// the audit loop waits for next is always the first one a worker starts
	// on: a fetch includes the decode, and a worker that picked a later
	// epoch first would hold the loop up for a whole decode. Every index is
	// queued at most once, so the queue is sized for all of them and
	// queueing never blocks; closing it on return lets the workers finish
	// what was queued and exit.
	jobs := make(chan int, len(pending))
	defer close(jobs)
	for w := 0; w < min(a.cfg.Workers, len(pending)); w++ {
		go func() {
			for i := range jobs {
				var f fetched
				var blob []byte
				f.err = iofault.Retry(ctx, func() error {
					var rerr error
					f.tr, blob, _, rerr = epochlog.ReadSealed(a.cfg.Dir, pending[i].Seq, opt)
					return rerr
				})
				if f.err == nil {
					f.adv, f.adviceErr = a.decodeAdvice(blob)
				}
				results[i] <- f
			}
		}()
	}
	next, inWindow := 0, 0
	var windowBytes int64
	issue := func() {
		for next < len(pending) && inWindow < window {
			e := est(pending[next])
			if inWindow > 0 && windowBytes+e > a.cfg.MaxPrefetchBytes {
				break
			}
			inWindow++
			windowBytes += e
			a.mu.Lock()
			if inWindow > a.status.PeakPrefetchEpochs {
				a.status.PeakPrefetchEpochs = inWindow
			}
			if windowBytes > a.status.PeakPrefetchBytes {
				a.status.PeakPrefetchBytes = windowBytes
			}
			a.mu.Unlock()
			jobs <- next
			next++
		}
	}
	issue()

	processed := 0
	for i, m := range pending {
		if err := ctx.Err(); err != nil {
			return processed, err
		}
		f := <-results[i]
		if f.err != nil {
			return processed, fmt.Errorf("auditd: epoch %d: %w", m.Seq, f.err)
		}
		cp, err := a.auditEpoch(ctx, m, f)
		if err != nil {
			return processed, err
		}
		processed++
		if err := a.persistCheckpoint(cp); err != nil {
			return processed, err
		}
		inWindow--
		windowBytes -= est(m)
		issue()
	}
	return processed, nil
}

// auditEpoch grades one epoch and returns the checkpoint recording it.
func (a *Auditor) auditEpoch(ctx context.Context, m epochlog.Manifest, f fetched) (checkpoint, error) {
	start := time.Now() //karousos:detlint-ok audit-latency metric for Status; never part of the verdict

	if a.cfg.routing != nil {
		// Routing of epoch k, then audit of epoch k: a trace carrying a
		// request the map routes elsewhere poisons the shard's evidence
		// stream from here on — its carry may embed another shard's state —
		// so it is checked before this epoch can shape a verdict, and after
		// every earlier epoch already has. The order is per epoch, so the
		// outcome does not depend on how sealing interleaved with audit
		// passes. The trace is trusted: a violation is evidence, never a
		// grading gap, whatever the manifest says about the advice.
		if err := a.cfg.routing(f.tr); err != nil {
			return checkpoint{}, a.reject(m.Seq, core.RejectShardConflict, err.Error())
		}
	}

	if m.Fresh {
		// Trusted restart boundary, recorded by the collector itself: the
		// serving runtime began this epoch with fresh application state, so
		// carried prior-epoch state no longer describes the server and must
		// not be threaded into this or any later epoch's audit. A Fresh
		// manifest also re-anchors an unauditable run: nil carry is exactly
		// right for rebuilt state, so grading can resume. The memo cache is
		// dropped alongside the carry: its entries were published under the
		// pre-restart state lineage and keeping them would at best miss.
		a.mu.Lock()
		a.carry = nil
		a.unauditable = false
		a.mu.Unlock()
		if a.memo != nil {
			a.memo.Reset()
		}
	}

	a.mu.Lock()
	unanchored := a.unauditable
	a.mu.Unlock()
	if unanchored {
		// An earlier epoch graded Unauditable, so the carry this epoch's
		// audit would need is unknown. Auditing against a guessed carry
		// could only manufacture a false reject; grade Unauditable and move
		// on until a Fresh boundary re-anchors.
		return a.gradeUnauditable(m, "carry unanchored by earlier unauditable epoch"), nil
	}

	reject := func(code core.RejectCode, reason string) (checkpoint, error) {
		if m.Degraded != "" && code != core.RejectInternalFault {
			// The collector flagged this epoch's evidence incomplete for an
			// infrastructure reason. A failed audit of incomplete evidence
			// proves nothing — complete evidence might have passed — so the
			// epoch is unauditable, not a server accusation. InternalFault
			// is exempt: that is the auditor's own failure, returned as an
			// error with the carry and the cursor left on this epoch.
			return a.gradeUnauditable(m, fmt.Sprintf("degraded (%s); audit failed [%s]: %s", m.Degraded, code, reason)), nil
		}
		return checkpoint{}, a.reject(m.Seq, code, reason)
	}

	if f.adviceErr != nil {
		return reject(rejectCode(f.adviceErr), f.adviceErr.Error())
	}

	app, _ := a.cfg.Spec.New()
	cfg := verifier.Config{
		App:       app,
		Mode:      advice.ModeKarousos,
		Isolation: a.cfg.Spec.Isolation,
		Limits:    a.cfg.Limits,
		Carry:     a.carry,
		Workers:   a.cfg.AuditWorkers,
		Memo:      a.memo,
	}
	var dot *bytes.Buffer
	if a.cfg.GraphDir != "" {
		dot = new(bytes.Buffer)
		cfg.DumpGraph = dot
	}
	st, next, err := verifier.AuditCarry(ctx, cfg, f.tr, f.adv)
	if dot != nil && dot.Len() > 0 {
		path := filepath.Join(a.cfg.GraphDir, fmt.Sprintf("ep%06d.dot", m.Seq))
		if werr := a.cfg.fs().WriteFile(path, dot.Bytes(), 0o644); werr != nil {
			return checkpoint{}, fmt.Errorf("auditd: writing graph: %w", werr)
		}
	}
	if err != nil {
		return reject(rejectCode(err), err.Error())
	}

	a.mu.Lock()
	a.carry = next
	a.status.Stats.Add(st)
	a.status.LastAccepted = m.Seq
	a.status.LastProcessed = m.Seq
	a.status.Accepted++
	a.status.LastAudit = time.Since(start) //karousos:detlint-ok audit-latency metric for Status; never part of the verdict
	a.status.TotalAudit += a.status.LastAudit
	cp := checkpoint{LastAccepted: m.Seq, LastProcessed: m.Seq, Carry: next}
	if a.memo != nil {
		cp.Memo = &MemoCounters{
			Hits:      a.status.Stats.MemoHits,
			Misses:    a.status.Stats.MemoMisses,
			Evictions: a.status.Stats.MemoEvictions,
		}
	}
	a.mu.Unlock()
	a.recordVerdict(Verdict{Epoch: m.Seq})
	return cp, nil
}

// decodeAdvice is the advice channel's boundary, run by a prefetch worker:
// the size limit first, on the blob and on the body it declares, then the
// decode. The advice is untrusted end to end, so a blob that does not
// decode — whether the server sent garbage or the disk lost the frame — is
// a coded rejection (MalformedAdvice, the code rejectCode gives an uncoded
// error), not an infrastructure error.
func (a *Auditor) decodeAdvice(blob []byte) (*advice.Advice, error) {
	if err := a.cfg.Limits.CheckAdviceBlob(blob); err != nil {
		return nil, err
	}
	return advice.UnmarshalBinary(blob)
}

// reject records the epoch's rejection verdict and returns it as the error
// that halts the run. An InternalFault is the auditor's own failure, not a
// verdict on the server: it is only returned, and neither counted nor
// recorded.
func (a *Auditor) reject(seq uint64, code core.RejectCode, reason string) error {
	if code != core.RejectInternalFault {
		a.mu.Lock()
		a.status.Rejected++
		a.mu.Unlock()
		a.recordVerdict(Verdict{Epoch: seq, Code: code, Reason: reason})
	}
	return &Reject{Epoch: seq, Code: code, Reason: reason}
}

// gradeUnauditable records an Unauditable verdict for the epoch, puts the
// auditor into unanchored mode and returns the checkpoint: processing
// advances, accusation does not. Even a degraded epoch whose audit
// *accepts* keeps its accept — this path only runs when the audit could not.
func (a *Auditor) gradeUnauditable(m epochlog.Manifest, reason string) checkpoint {
	a.mu.Lock()
	a.unauditable = true
	a.carry = nil
	a.status.LastProcessed = m.Seq
	a.status.Unauditable++
	cp := checkpoint{
		LastAccepted:  a.status.LastAccepted,
		LastProcessed: m.Seq,
		Unauditable:   true,
	}
	a.mu.Unlock()
	a.recordVerdict(Verdict{Epoch: m.Seq, Code: core.RejectUnauditable, Reason: reason})
	return cp
}

func (a *Auditor) persistCheckpoint(cp checkpoint) error {
	if a.cfg.Checkpoint == "" {
		return nil
	}
	err := iofault.Retry(context.Background(), func() error {
		return writeCheckpoint(a.cfg.fs(), a.cfg.Checkpoint, cp)
	})
	if err != nil {
		return fmt.Errorf("auditd: checkpoint: %w", err)
	}
	return nil
}

func rejectCode(err error) core.RejectCode {
	if code := core.RejectCodeOf(err); code != "" {
		return code
	}
	return core.RejectMalformedAdvice
}

// writeCheckpoint persists atomically: a crash mid-write leaves the previous
// checkpoint, so a restarted auditor re-audits at most one epoch. The
// parent-directory fsync is load-bearing and its failure surfaces — without
// it the rename itself can vanish on power loss, resurrecting a stale
// checkpoint whose carry no longer matches the sealed prefix.
func writeCheckpoint(fsys iofault.FS, path string, cp checkpoint) error {
	blob, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := iofault.WriteFileSync(fsys, tmp, blob); err != nil {
		return fmt.Errorf("checkpoint %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("checkpoint directory fsync: %w", err)
	}
	return nil
}

// CheckpointProbe classifies what ProbeCheckpoint found at the checkpoint
// path. The distinction matters to admission control: "no checkpoint yet"
// means no auditor has been attached, so there is no lag signal and the
// window stays open, while a corrupt checkpoint means an auditor exists but
// its progress marker is unreadable — the auditor will quarantine it and
// restart from zero, so progress *is* known (zero) and the window should
// tighten against the real backlog. (Reading a torn checkpoint as "no
// auditor" would release backpressure exactly when the backlog is largest.)
type CheckpointProbe int

const (
	// CheckpointMissing: the file does not exist — no auditor has graded
	// anything (or none is attached).
	CheckpointMissing CheckpointProbe = iota
	// CheckpointOK: the checkpoint decoded; lastProcessed is authoritative.
	CheckpointOK
	// CheckpointCorrupt: the file exists but cannot be read or decoded — a
	// torn write or I/O fault. The attached auditor restarts from zero, so
	// effective progress is zero, not unknown.
	CheckpointCorrupt
)

// ProbeCheckpoint is how a process other than the auditor reads its
// checkpoint file: the newest epoch the auditor has graded, the memo-cache
// counters it last checkpointed (nil when it runs without memoization), and
// what was found at the path. The probe is advisory — collectors poll it for
// admission backpressure, `karousos status` for pending counts and memo
// counters — so no failure mode surfaces as an error; anything but
// CheckpointOK reports progress zero and no counters.
func ProbeCheckpoint(fsys iofault.FS, path string) (lastProcessed uint64, memo *MemoCounters, probe CheckpointProbe) {
	if fsys == nil {
		fsys = iofault.OS
	}
	blob, err := fsys.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return 0, nil, CheckpointMissing // advisory probe; no checkpoint yet reads as missing
	case err != nil:
		return 0, nil, CheckpointCorrupt // advisory probe; an unreadable checkpoint reads as corrupt, not surfaced
	}
	var cp checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return 0, nil, CheckpointCorrupt // advisory probe; a torn checkpoint reads as corrupt, not surfaced
	}
	if cp.LastProcessed < cp.LastAccepted {
		cp.LastProcessed = cp.LastAccepted
	}
	return cp.LastProcessed, cp.Memo, CheckpointOK
}
