package epochlog

import (
	"context"
	"errors"
	"fmt"

	"karousos.dev/karousos/internal/iofault"
)

// This file is the one seal path (DESIGN.md §14), split in two halves so
// that no lock is held across a seal's fsyncs. Rotate is the fast half:
// snapshot the epoch's accounting, swap in the next epoch's trace file,
// done — no fsync. FinishSeals pays the durable half afterwards, outside
// whatever gate the caller serializes appends with, so the accept loop
// keeps moving while the old epoch syncs. Seal is the two in a row, and
// Open seals the epochs a crash left unsealed through the same two calls.

// Rotate closes the active epoch's accounting and swaps in the next
// epoch's trace file without any fsync; the rotated epoch, with its advice
// record, becomes a pending seal that FinishSeals completes durably. It
// returns the rotated epoch's seq, for SetAdvice. The caller must
// serialize Rotate against its own appends (the HTTP collector holds its
// epoch gate exclusively), or a request could straddle the epoch boundary.
// Rotating an epoch with no events is a no-op (0, nil).
//
// A failed rotation rolls back: the epoch stays active and appendable.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("epochlog: log is closed")
	}
	// The rotation linearizes after every accepted append.
	l.drainCommitQueueLocked() // rotation linearization: accepted appends must land in the outgoing epoch; arrivals queue on commitCh, not l.mu
	if l.events == 0 {
		return 0, nil
	}
	ps := &pendingSeal{m: l.manifestLocked(), traceF: l.traceF, advice: l.advice}
	dig, tb := l.digest, l.tailBroken
	l.pending = append(l.pending, ps)
	l.active++
	if err := l.openActive(); err != nil {
		l.pending = l.pending[:len(l.pending)-1]
		l.active--
		l.traceF, l.advice = ps.traceF, ps.advice
		l.events, l.requests, l.lastRID = ps.m.Events, ps.m.Requests, ps.m.LastRID
		l.fresh, l.degraded = ps.m.Fresh, ps.m.Degraded
		l.written, l.digest, l.tailBroken = ps.m.TraceBytes, dig, tb
		return 0, err
	}
	return ps.m.Seq, nil
}

// FinishSeals completes the durable half of every rotated-out epoch, in
// order: the advice record written whole and fsynced, the trace fsync,
// manifest write+fsync, directory fsync. It returns the last manifest it
// finished (nil when nothing was pending).
//
// A record that cannot be made durable is dropped and its epoch seals
// Degraded: the trace is never held hostage to the advice channel. Any
// other failure leaves the unfinished epochs pending, and FinishSeals may
// be retried; manifests land strictly in epoch order, so the sealed prefix
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
		m := ps.m
		var rec []byte // no record: an empty file
		if ps.advice != nil {
			rec = frame(ps.advice)
		}
		// Each attempt starts the file over, never appending behind a tear.
		err := iofault.Retry(context.Background(), func() error {
			return iofault.WriteFileSync(l.fs, advicePath(l.dir, m.Seq), rec)
		})
		if err == nil {
			m.AdviceBytes = len(ps.advice)
		} else if m.Degraded == "" {
			m.Degraded = fmt.Sprintf("%sepoch %d advice %v", adviceLost, m.Seq, err)
		}
		if err := ps.traceF.Sync(); err != nil {
			return last, fmt.Errorf("epochlog: sealing epoch %d: data fsync: %w", m.Seq, err)
		}
		if err := writeManifestDurable(l.fs, l.dir, m); err != nil {
			return last, err
		}
		_ = ps.traceF.Close()                    // close after successful fsync carries no durability information
		_ = l.fs.Remove(freshPath(l.dir, m.Seq)) // best-effort; the sealed manifest now records Fresh durably
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
