package core

import (
	"errors"
	"fmt"
)

// RejectCode is the machine-readable classification of an audit rejection.
// The advice is untrusted (§2.1), so the verifier must turn *every* hostile
// input into a verdict rather than a crash; the code tells operators — and
// the CLI's exit-status logic — which layer of the audit fired.
type RejectCode string

const (
	// RejectMalformedAdvice: the advice fails structural validation before
	// or during Preprocess — missing sections, out-of-range references,
	// duplicate entries, impossible log shapes, or a mode mismatch.
	RejectMalformedAdvice RejectCode = "MalformedAdvice"
	// RejectLogMismatch: grouped re-execution diverged from the logs — an
	// operation the advice never logged, a logged operation replay never
	// produced, or replayed values disagreeing with logged ones (Figure 19).
	RejectLogMismatch RejectCode = "LogMismatch"
	// RejectGraphCycle: the execution graph G is cyclic — no legal schedule
	// explains the alleged execution (§4.3, Figure 5's family).
	RejectGraphCycle RejectCode = "GraphCycle"
	// RejectIsolationViolation: the alleged transaction history violates the
	// store's isolation level (Figure 17, Adya's phenomena) or its read-from
	// / write-order consistency rules (§4.4).
	RejectIsolationViolation RejectCode = "IsolationViolation"
	// RejectOutputMismatch: re-execution produced a response that differs
	// from the trusted trace — the observable-behavior check itself.
	RejectOutputMismatch RejectCode = "OutputMismatch"
	// RejectResourceLimit: the audit exceeded a configured resource bound
	// (verifier.Limits) — attacker-inflated opcounts, graph blow-up, or a
	// wall-clock deadline. The advice is rejected, not the auditor killed.
	RejectResourceLimit RejectCode = "ResourceLimit"
	// RejectShardConflict: the sharded audit plane's cross-shard merge
	// check failed — a store key's surviving write is claimed by more than
	// one shard's carry, or a shard's trace contains a request the shard
	// map routes elsewhere. Each shard's audit is sound in isolation; this
	// code says the shards do not compose into one partitioned server:
	// either the gateway misrouted (evidence: the trace) or two shards
	// both claim ownership of the same state.
	RejectShardConflict RejectCode = "ShardConflict"
	// RejectInternalFault: the verifier itself panicked on this input. The
	// audit boundary converts the panic into this rejection (stack attached)
	// so one malformed blob cannot take down the audit process; an
	// InternalFault is also a verifier bug worth filing.
	RejectInternalFault RejectCode = "InternalFault"
	// RejectUnauditable: the epoch could not be graded either way. Its
	// evidence was flagged degraded on the trusted channel (a crash-recovered
	// partial epoch, an advice outage, a torn response append) and the audit
	// did not accept — which proves nothing about the server, since complete
	// evidence might have. Unauditable is deliberately distinct from a
	// rejection: infrastructure faults must never manufacture accusations.
	// It is also sticky: once an epoch is unauditable the cross-epoch carry
	// is unanchored, so later epochs stay unauditable until a Fresh manifest
	// re-anchors the audit at rebuilt state.
	RejectUnauditable RejectCode = "Unauditable"
)

// String returns the stable operator-facing name of the code — the same
// token the CLI prints with -reason-code and README's reason-code table
// documents. The empty code (no verdict classification) reads "<uncoded>".
func (c RejectCode) String() string {
	if c == "" {
		return "<uncoded>"
	}
	return string(c)
}

// AllRejectCodes returns every defined rejection code, ordered by the audit
// layer that fires it (structural validation first, evidence degradation
// last). TestRejectCodeRegistry checks it against the constant block above
// and README's reason-code table.
func AllRejectCodes() []RejectCode {
	return []RejectCode{
		RejectMalformedAdvice,
		RejectLogMismatch,
		RejectGraphCycle,
		RejectIsolationViolation,
		RejectOutputMismatch,
		RejectResourceLimit,
		RejectShardConflict,
		RejectInternalFault,
		RejectUnauditable,
	}
}

// Reject aborts an audit: verifier-side Ops implementations panic with it
// when untrusted advice fails a check, and the audit boundary recovers it
// into the verdict. It is exported so every layer (annotated-op replay,
// state-op checks, group execution) rejects uniformly.
type Reject struct {
	// Code classifies the rejection; legacy call sites that only supply a
	// reason default to MalformedAdvice.
	Code   RejectCode
	Reason string
	// Stack carries the captured goroutine stack for InternalFault
	// rejections, for diagnostics; empty otherwise.
	Stack string
}

// Error implements error.
func (r Reject) Error() string {
	if r.Code == "" {
		return "audit reject: " + r.Reason
	}
	return fmt.Sprintf("audit reject [%s]: %s", r.Code, r.Reason)
}

// Rejectf panics with a MalformedAdvice Reject carrying the formatted
// reason. Prefer RejectCodef at new call sites.
func Rejectf(format string, args ...any) {
	RejectCodef(RejectMalformedAdvice, format, args...)
}

// RejectCodef panics with a Reject carrying the given code and formatted
// reason.
func RejectCodef(code RejectCode, format string, args ...any) {
	panic(Reject{Code: code, Reason: fmt.Sprintf(format, args...)})
}

// RejectCodeOf extracts the rejection code from an audit error: the Reject's
// code if err is (or wraps) one, or "" for nil and non-reject errors.
func RejectCodeOf(err error) RejectCode {
	if err == nil {
		return ""
	}
	var rej Reject
	if errors.As(err, &rej) {
		return rej.Code
	}
	return ""
}
