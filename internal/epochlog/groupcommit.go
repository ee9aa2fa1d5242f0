package epochlog

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
)

// This file is the group-commit half of the log (DESIGN.md §14): durable
// appends enqueue to a committer goroutine that coalesces concurrently
// arriving frames into one write + one fsync. A waiter is acked only after
// the fsync, so "the collector said 200" always implies "the frame is on
// disk" — the invariant crash recovery leans on when it seals orphaned
// epochs from their files alone.

// Ack is the durability handle of one asynchronous append. An append is
// either refused on the spot (Refused) or enqueued, and then Wait reports
// its commit. One committer takes enqueued frames in order, so the acks of
// one log resolve in enqueue order: once a later append's Wait returns,
// every earlier append's Ack is already resolved, and one wait on the last
// frame covers them all.
type Ack struct {
	ch   chan error // nil when the append was refused at enqueue
	err  error
	done bool
}

func ackDone(err error) *Ack { return &Ack{err: err, done: true} }

// Refused returns the error of an append the log turned away when it was
// made — a full commit queue or a closed log — without waiting; nil means
// the frame was enqueued and its outcome is Wait's.
func (a *Ack) Refused() error {
	if a.ch == nil {
		return a.err
	}
	return nil
}

// Wait blocks until the append's batch fsync completes (or fails) and
// returns the append's outcome. Wait is not safe for concurrent use on one
// Ack; call it from the goroutine that appended.
func (a *Ack) Wait() error {
	if !a.done {
		a.err = <-a.ch
		a.done = true
	}
	return a.err
}

// commitWaiter is one enqueued durable append.
type commitWaiter struct {
	frame   []byte
	payload []byte // the frame's payload view, for the running digest
	isReq   bool
	rid     string
	done    chan error
}

// AppendEventAsync appends one trace event with a durability ack: the
// frame rides the committer's next batch fsync. A full commit queue
// refuses immediately with an Ack carrying ErrCommitQueueFull — the queue
// is bounded, overload sheds here. Once enqueued, the frame is committed:
// nothing recalls bytes headed for the disk.
func (l *Log) AppendEventAsync(e trace.Event) *Ack {
	payload := trace.AppendEventBinary(nil, e)
	w := &commitWaiter{
		frame:   frame(payload),
		payload: payload,
		isReq:   e.Kind == trace.Req,
		rid:     e.RID,
		done:    make(chan error, 1),
	}
	// No l.mu here: the committer holds it across a whole batch (fsync
	// included), and blocking arrivals on it would be an unbounded queue in
	// disguise. commitMu only fences against Close.
	l.commitMu.RLock()
	defer l.commitMu.RUnlock()
	if l.commitClosed {
		return ackDone(errors.New("epochlog: log is closed"))
	}
	select {
	case l.commitCh <- w:
		return &Ack{ch: w.done}
	default:
		return ackDone(fmt.Errorf("epochlog: %w", ErrCommitQueueFull))
	}
}

// maxBatchFrames caps how many frames one group-commit batch carries.
const maxBatchFrames = 512

// commitQueue caps enqueued-but-uncommitted durable appends. A full queue
// refuses with ErrCommitQueueFull rather than queueing unboundedly.
const commitQueue = 4096

// committer is the group-commit loop: it blocks for one enqueued waiter,
// then drains whatever else arrived (up to maxBatchFrames) and commits the
// whole batch under one write+fsync. Batch size is emergent — light load
// commits single frames at per-frame latency, heavy load amortizes one
// fsync across hundreds of frames — the classic group-commit bargain.
func (l *Log) committer() {
	defer l.commitWG.Done()
	for w := range l.commitCh {
		// The first send of a cycle hands the scheduler this goroutine as
		// the sender's immediate successor, so without a yield the drain
		// below often runs before the other just-acked appenders get to
		// re-enqueue — batches collapse to one frame and the fsync
		// amortization is lost (worst on few cores). One yield parks the
		// committer behind every runnable appender; the stragglers enqueue,
		// then the drain collects them all. Costs one scheduler pass per
		// batch, repaid hundreds of times over by the saved fsyncs.
		runtime.Gosched()
		batch := []*commitWaiter{w}
	fill:
		for len(batch) < maxBatchFrames {
			select {
			case w2, ok := <-l.commitCh:
				if !ok {
					break fill
				}
				batch = append(batch, w2)
			default:
				break fill
			}
		}
		l.mu.Lock()
		l.commitLocked(batch) // this IS the committer: one fsync amortized over the batch holds l.mu while arrivals queue on commitCh
		l.mu.Unlock()
	}
}

// drainCommitQueueLocked commits every waiter currently enqueued, so a
// seal or rotation linearizes after all accepted appends. Caller holds
// l.mu; the committer goroutine is either between batches (its claimed
// waiters already committed) or blocked on l.mu with a claimed batch that
// will land in the next epoch — which its callers tolerate, since the
// collector's epoch gate keeps appends and rotations from overlapping.
func (l *Log) drainCommitQueueLocked() {
	var batch []*commitWaiter
drain:
	for {
		select {
		case w, ok := <-l.commitCh:
			if !ok {
				break drain
			}
			batch = append(batch, w)
		default:
			break drain
		}
	}
	if len(batch) > 0 {
		l.commitLocked(batch)
	}
}

// commitLocked makes one batch of frames durable under a single write and
// a single fsync, then acks every waiter. Caller holds l.mu.
func (l *Log) commitLocked(batch []*commitWaiter) {
	var buf []byte
	for _, w := range batch {
		buf = append(buf, w.frame...)
	}
	if err := l.writeDurableLocked(buf); err != nil {
		for _, w := range batch {
			w.done <- err
		}
		return
	}
	for _, w := range batch {
		l.events++
		if w.isReq {
			l.requests++
			l.lastRID = w.rid
		}
		l.digest.Write(w.payload) // hash.Hash.Write is documented never to return an error
		w.done <- nil
	}
}

// writeDurableLocked writes buf (whole frames) to the active trace file
// and fsyncs it, retrying transient write faults. Every failure truncates
// the file back to the counted intact length first: frames that were never
// acked must not survive on disk, and a torn tail would strand later
// appends behind unreadable bytes. Caller holds l.mu.
func (l *Log) writeDurableLocked(buf []byte) error {
	if err := l.ensureTailLocked(); err != nil {
		return err
	}
	err := iofault.Retry(context.Background(), func() error {
		_, werr := l.traceF.Write(buf)
		if werr != nil {
			if terr := l.repairTailLocked(); terr != nil {
				l.tailBroken = true
				// Deliberately unwrapped: with the tear in place another
				// write attempt would bury frames, so the retry loop must
				// classify this permanent.
				return fmt.Errorf("epochlog: torn tail unrepaired after failed write: %v (repair: %v)", werr, terr)
			}
		}
		return werr
	})
	if err != nil {
		return fmt.Errorf("epochlog: %w", err)
	}
	if err := l.traceF.Sync(); err != nil {
		// The batch never became durable and its waiters are being told
		// so; drop its bytes so the file matches the counted state.
		if terr := l.repairTailLocked(); terr != nil {
			l.tailBroken = true
			return errors.Join(fmt.Errorf("epochlog: batch fsync: %w", err), terr)
		}
		return fmt.Errorf("epochlog: batch fsync: %w", err)
	}
	l.written += int64(len(buf))
	return nil
}

// repairTailLocked truncates the active trace file back to l.written, the
// byte length of its counted intact frames. Caller holds l.mu.
func (l *Log) repairTailLocked() error {
	return l.fs.Truncate(tracePath(l.dir, l.active), l.written)
}

// ensureTailLocked re-attempts a previously failed tail repair; until the
// repair lands no further bytes may be appended, or intact frames would
// end up unreachably behind the tear. Caller holds l.mu.
func (l *Log) ensureTailLocked() error {
	if !l.tailBroken {
		return nil
	}
	if err := l.repairTailLocked(); err != nil {
		return fmt.Errorf("epochlog: torn tail unrepaired: %w", err)
	}
	l.tailBroken = false
	return nil
}
