package iofault

import (
	"context"
	"errors"
	"os"
	"syscall"

	"karousos.dev/karousos/internal/fault"
)

// Class sorts an I/O error into the degradation ladder's rungs: retry it,
// degrade around it, or halt on it. The question this ladder answers is
// "will re-issuing the same operation help?" — netfault.Classify answers a
// different one, which is why the two stay apart.
type Class int

const (
	// ClassPermanent: retrying the same operation cannot help. The caller
	// must fail the operation and let the layer above decide (supervisor
	// restart, loud error).
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

// Retry runs op, re-issuing it with backoff while the error classifies
// transient. It returns nil on success, the first non-transient error
// immediately, or the last transient error once attempts are exhausted.
// The backoff sleep is interruptible: a context cancelled before or during
// it returns the context's error joined with the last I/O error. A nil ctx
// never cancels.
func Retry(ctx context.Context, b fault.Backoff, op func() error) error {
	b = b.WithDefaults()
	var err error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if err = op(); err == nil || Classify(err) != ClassTransient {
			return err
		}
		if attempt == b.Attempts-1 {
			break
		}
		if cerr := b.Wait(ctx, attempt); cerr != nil {
			return errors.Join(cerr, err)
		}
	}
	return err
}
