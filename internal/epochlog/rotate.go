package epochlog

import (
	"errors"
	"fmt"

	"karousos.dev/karousos/internal/iofault"
)

// This file is the one seal path (DESIGN.md §14), split in two halves so
// that no lock is held across a seal's fsyncs. Rotate is the fast half:
// snapshot the epoch's accounting, swap in fresh files, done — no fsync.
// FinishSeals pays the durable half afterwards, outside whatever gate the
// caller serializes appends with, so the accept loop keeps moving while
// the old epoch syncs. Seal is the two in a row, and Open seals the epochs
// a crash left unsealed through the same two calls.

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
	l.drainCommitQueueLocked() // rotation linearization: accepted appends must land in the outgoing epoch; arrivals queue on commitCh, not l.mu
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
	return l.finishPending() // sealMu exists to serialize seal durability work; finishPending drops l.mu around each fsync so appends proceed
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
		_ = ps.traceF.Close()                       // close after successful fsync carries no durability information
		_ = ps.adviceF.Close()                      // close after successful fsync carries no durability information
		_ = l.fs.Remove(freshPath(l.dir, ps.m.Seq)) // best-effort; the sealed manifest now records Fresh durably
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
