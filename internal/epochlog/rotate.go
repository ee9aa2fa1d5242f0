package epochlog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
)

// This file is the double-buffered seal (DESIGN.md §14). The legacy Seal
// does everything — data fsync, manifest, rotation — under one lock, which
// stalls every in-flight request for the seal's worth of fsyncs. Rotate
// splits off the fast half: snapshot the epoch's accounting, swap in fresh
// files, done — no fsync. FinishSeals pays the durable half afterwards,
// outside whatever gate the caller serializes appends with, so the accept
// loop keeps moving while the old epoch syncs.

// Rotate closes the active epoch's accounting and swaps in the next
// epoch's files without any fsync; the rotated epoch becomes a pending
// seal that FinishSeals completes durably. The caller must serialize
// Rotate against its own appends (the HTTP collector holds its epoch gate
// exclusively), or a request could straddle the epoch boundary. Rotating
// an epoch with no events is a no-op (false, nil).
//
// A failed rotation rolls back: the epoch stays active and appendable.
func (l *Log) Rotate() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false, errors.New("epochlog: log is closed")
	}
	// The rotation linearizes after every accepted append.
	l.drainCommitQueueLocked() //karousos:locklint-ok rotation linearization: accepted appends must land in the outgoing epoch; arrivals queue on commitCh, not l.mu
	if l.events == 0 {
		return false, nil
	}
	ps := &pendingSeal{m: l.manifestLocked(), traceF: l.traceF, adviceF: l.adviceF}
	dig, tb := l.digest, l.tailBroken
	l.pending = append(l.pending, ps)
	l.active++
	if err := l.openActive(); err != nil {
		l.pending = l.pending[:len(l.pending)-1]
		l.active--
		l.traceF, l.adviceF = ps.traceF, ps.adviceF
		l.events, l.requests = ps.m.Events, ps.m.Requests
		l.adviceBytes, l.lastRID = ps.m.AdviceBytes, ps.m.LastRID
		l.fresh, l.degraded = ps.m.Fresh, ps.m.Degraded
		l.written, l.digest, l.tailBroken = ps.m.TraceBytes, dig, tb
		return false, err
	}
	return true, nil
}

// FinishSeals completes the durable half of every rotated-out epoch, in
// order: data fsync, then manifest write+fsync, then directory fsync.
// It returns the last manifest it finished (nil when nothing was pending).
//
// On failure the unfinished epochs stay pending and FinishSeals may be
// retried; manifests land strictly in epoch order, so the sealed prefix
// never grows a gap.
func (l *Log) FinishSeals() (*Manifest, error) {
	l.sealMu.Lock()
	defer l.sealMu.Unlock()
	return l.finishPending() //karousos:locklint-ok sealMu exists to serialize seal durability work; finishPending drops l.mu around each fsync so appends proceed
}

// finishPending does FinishSeals' work. Caller holds l.sealMu but not
// l.mu: appends to the new active epoch proceed while old epochs fsync.
func (l *Log) finishPending() (*Manifest, error) {
	var last *Manifest
	for {
		l.mu.Lock()
		if len(l.pending) == 0 {
			l.mu.Unlock()
			return last, nil
		}
		ps := l.pending[0]
		l.mu.Unlock()
		for _, f := range []iofault.File{ps.traceF, ps.adviceF} {
			if err := f.Sync(); err != nil {
				return last, fmt.Errorf("epochlog: sealing epoch %d: data fsync: %w", ps.m.Seq, err)
			}
		}
		if err := writeManifestDurable(l.fs, l.dir, ps.m); err != nil {
			return last, err
		}
		_ = ps.traceF.Close()                       //karousos:errladder-ok close after successful fsync carries no durability information
		_ = ps.adviceF.Close()                      //karousos:errladder-ok close after successful fsync carries no durability information
		_ = l.fs.Remove(freshPath(l.dir, ps.m.Seq)) //karousos:errladder-ok best-effort; the sealed manifest now records Fresh durably
		m := ps.m
		l.mu.Lock()
		l.sealed = append(l.sealed, m)
		l.pending = l.pending[1:]
		l.mu.Unlock()
		last = &m
	}
}

// PendingSeals reports how many rotated-out epochs still owe their durable
// seal.
func (l *Log) PendingSeals() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// recoverySeal seals epoch seq from its on-disk bytes alone. A crash
// between Rotate and FinishSeals leaves an epoch whose acked frames are
// durable — group-commit acks happen only after their batch fsync — but
// whose manifest never landed, while the collector already filled
// successor epochs. Recovery truncates the torn tails, recounts, and
// seals the epoch Degraded: frames past the last batch fsync and advice
// that never synced are gone, and the auditor must grade what remains as
// possibly incomplete evidence, never as the server's lie.
func recoverySeal(fsys iofault.FS, dir string, seq uint64) (*Manifest, error) {
	tp := tracePath(dir, seq)
	if err := truncateTorn(fsys, tp); err != nil {
		return nil, err
	}
	dig := sha256.New()
	m := Manifest{Seq: seq, Degraded: "sealed by crash recovery: collector stopped before finishing this epoch's seal"}
	if err := scanFrames(fsys, tp, 0, func(payload []byte) error {
		e, err := trace.DecodeEventBinary(payload, nil)
		if err != nil {
			return fmt.Errorf("epochlog: %s: recovered frame undecodable: %w", tp, err)
		}
		m.Events++
		if e.Kind == trace.Req {
			m.Requests++
			m.LastRID = e.RID
		}
		m.TraceBytes += int64(frameHeader + len(payload))
		dig.Write(payload) //karousos:errladder-ok hash.Hash.Write is documented never to return an error
		return nil
	}); err != nil {
		return nil, err
	}
	if m.Events == 0 {
		// Open only recovery-seals data-bearing epochs, so this is a
		// should-not-happen guard, not a reachable state.
		return nil, fmt.Errorf("epochlog: recovery-sealing epoch %d: no intact frames", seq)
	}
	m.TraceDigest = fmt.Sprintf("%x", dig.Sum(nil))
	ap := advicePath(dir, seq)
	if err := truncateTorn(fsys, ap); err != nil {
		return nil, err
	}
	if err := scanFrames(fsys, ap, 0, func(payload []byte) error {
		m.AdviceBytes = len(payload)
		return nil
	}); err != nil {
		return nil, err
	}
	_, statErr := fsys.Stat(freshPath(dir, seq))
	m.Fresh = statErr == nil
	// Make the surviving data durable before the manifest claims it.
	for _, p := range []string{tp, ap} {
		f, err := fsys.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
		if errors.Is(err, os.ErrNotExist) {
			continue // the epoch never got an advice file
		}
		if err != nil {
			return nil, fmt.Errorf("epochlog: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close() //karousos:errladder-ok close-after-error; the fsync failure is the error that surfaces
			return nil, fmt.Errorf("epochlog: recovery-sealing epoch %d: data fsync: %w", seq, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("epochlog: %w", err)
		}
	}
	if err := writeManifestDurable(fsys, dir, m); err != nil {
		return nil, err
	}
	_ = fsys.Remove(freshPath(dir, seq)) //karousos:errladder-ok best-effort; the sealed manifest now records Fresh durably
	return &m, nil
}
