package netfault

import (
	"errors"
	"net"
	"net/url"
	"syscall"
)

// Class buckets a network error by what the caller may soundly do next.
// The question this ladder answers is not iofault.Classify's "will a retry
// work?" but "could the peer have executed the request?": a non-idempotent
// request may only be re-issued when the answer is provably no. That is why
// the two ladders stay apart.
type Class int

const (
	// ClassNone: no error.
	ClassNone Class = iota
	// ClassRetryable: the request provably never reached the peer —
	// connection refused, dial failure, or an injected fault that did not
	// forward. Safe to retry anything.
	ClassRetryable
	// ClassAmbiguous: request bytes may have reached the peer — timeout,
	// reset after send, truncated response, or any error we cannot prove
	// otherwise. Retrying a non-idempotent request here risks duplicate
	// execution; only idempotent requests may be re-issued.
	ClassAmbiguous
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassRetryable:
		return "retryable"
	case ClassAmbiguous:
		return "ambiguous"
	}
	return "unknown"
}

// Classify places a round-trip error on the ladder. Unknown errors are
// ambiguous by default: when in doubt, assume the peer saw the request.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		if fe.Forwarded {
			return ClassAmbiguous
		}
		return ClassRetryable
	}
	// url.Error wraps every transport failure; unwrap before probing.
	var ue *url.Error
	if errors.As(err, &ue) {
		err = ue.Err
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return ClassRetryable
	}
	var oe *net.OpError
	if errors.As(err, &oe) && oe.Op == "dial" {
		// Dial never sends application bytes: a failed dial — refused,
		// unreachable, or timed out before connect — is always safe.
		return ClassRetryable
	}
	// Everything else — a deadline, a reset after send, a truncated or
	// empty response, an error we have never seen — may have reached the
	// peer.
	return ClassAmbiguous
}
