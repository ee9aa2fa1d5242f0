package iofault

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"syscall"
	"time"
)

// Class sorts an I/O error into the degradation ladder's rungs: retry it,
// degrade around it, or halt on it. The question this ladder answers is
// "will re-issuing the same operation help?".
type Class int

const (
	// ClassPermanent: retrying the same operation cannot help. The caller
	// must fail the operation and let the layer above decide (degrade,
	// halt, or return the error to the next pass).
	ClassPermanent Class = iota
	// ClassTransient: the identical operation may succeed if re-issued —
	// EIO on a read path, EINTR, EAGAIN, an injected transient fault.
	ClassTransient
	// ClassDegraded: resource exhaustion (ENOSPC, EDQUOT). Retrying is
	// futile until an operator intervenes, but the pipeline can keep its
	// trusted trace flowing and seal epochs flagged degraded.
	ClassDegraded
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassDegraded:
		return "degraded"
	default:
		return "permanent"
	}
}

// Classify maps an error to its ladder rung. An injected *FaultError
// carries its own transience; for real errnos, EIO/EINTR/EAGAIN/timeouts
// are transient and ENOSPC/EDQUOT degrade. Anything else — including nil —
// is permanent: retrying cannot change a nil error, and an unknown failure
// must surface rather than spin.
func Classify(err error) Class {
	if err == nil {
		return ClassPermanent
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		if fe.Transient {
			return ClassTransient
		}
		if errors.Is(fe.Err, syscall.ENOSPC) || errors.Is(fe.Err, syscall.EDQUOT) {
			return ClassDegraded
		}
		return ClassPermanent
	}
	switch {
	case errors.Is(err, syscall.ENOSPC), errors.Is(err, syscall.EDQUOT):
		return ClassDegraded
	case errors.Is(err, syscall.EIO), errors.Is(err, syscall.EINTR),
		errors.Is(err, syscall.EAGAIN), errors.Is(err, syscall.ETIMEDOUT),
		errors.Is(err, os.ErrDeadlineExceeded):
		return ClassTransient
	}
	return ClassPermanent
}

// The retry policy. Every transient fault — real or injected — backs off
// the same way: at most retryAttempts tries, the delay before retry n
// doubling from retryBase up to retryMax.
const (
	retryAttempts = 6
	retryBase     = 2 * time.Millisecond
	retryMax      = 100 * time.Millisecond
)

// retryDelay returns the delay before retry number attempt (0-based),
// jittered within [delay/2, delay] so retriers that share a fault do not
// stampede in phase. Sleeping never affects verdicts, so the jitter needs
// no seed.
func retryDelay(attempt int) time.Duration {
	delay := retryBase << uint(attempt)
	if delay > retryMax || delay <= 0 {
		delay = retryMax
	}
	half := int64(delay / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// Retry runs op, re-issuing it with backoff while the error classifies
// transient. It returns nil on success, the first non-transient error
// immediately, or the last transient error once attempts are exhausted.
// The backoff sleep is interruptible: a context cancelled before or during
// it returns the context's error joined with the last I/O error.
func Retry(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || Classify(err) != ClassTransient || attempt == retryAttempts-1 {
			return err
		}
		t := time.NewTimer(retryDelay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return errors.Join(ctx.Err(), err)
		case <-t.C:
		}
	}
}
