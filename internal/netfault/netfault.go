// Package netfault is the pipeline's injectable network layer: the dual of
// internal/iofault for the wire instead of the disk. Where iofault breaks
// the filesystem underneath the trusted trace, netfault breaks the network
// path between the gateway and its shard collectors — connections refused,
// connections reset after the request left, blackholed links that swallow
// packets until a deadline fires, slow and truncated responses, and
// flapping links that alternate between refusing and passing.
//
// Arming, healing, and the seeded fire schedule live in internal/fault;
// this package owns the operator catalogue, what a fired operator does to
// a round trip, and the ladder that reads the error back.
//
// The plug point is Injector.Transport, which wraps an http.RoundTripper:
// the gateway's proxy client threads every backend request through the
// schedule.
//
// The invariant the chaos harness uses this package to enforce is the
// network restatement of iofault's: a network fault must never surface as
// a false accusation, a hang, or lost acknowledged evidence — it is
// retried when provably safe (no request bytes reached the peer), degraded
// around (503 + Retry-After, breaker open, epoch graded Unauditable), or
// surfaced loudly. The Classify ladder is what "provably safe" means: see
// Class.
package netfault

import (
	"fmt"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/fault"
)

// CallRequest is the interception point: one whole client-side HTTP round
// trip (Transport).
const CallRequest fault.Call = "request"

// Operator names. Each models one network failure class.
const (
	// OpConnRefused fails the round trip before any request byte is sent
	// (dial refused). Provably safe to retry.
	OpConnRefused = "conn-refused"
	// OpConnReset forwards the request to the peer, then loses the
	// response to a reset — the dangerous half-failure: the peer may have
	// executed the request, the client cannot know. Never safe to retry a
	// non-idempotent request.
	OpConnReset = "conn-reset"
	// OpBlackhole swallows the request without forwarding it and blocks
	// until the caller's context deadline (or the injector's MaxBlock cap)
	// fires — a partitioned link dropping packets. The client sees a
	// timeout, which is ambiguous by definition.
	OpBlackhole = "blackhole"
	// OpSlowResponse delays the response without erroring — latency.
	OpSlowResponse = "slow-response"
	// OpPartialBody delivers the response status and headers, then
	// truncates the body halfway — a connection dying mid-transfer.
	OpPartialBody = "partial-body"
	// OpFlap refuses like conn-refused but in seed-derived bursts with
	// clean gaps between them — a flapping link, the retry loop's natural
	// prey.
	OpFlap = "flap"
)

// operators is the catalogue. The sustained ones (a dark, slow, or flapping
// link) fire until healed by default; flap fires in bursts.
var operators = []fault.Operator{
	{Name: OpConnRefused},
	{Name: OpConnReset},
	{Name: OpBlackhole, Sustained: true},
	{Name: OpSlowResponse, Sustained: true},
	{Name: OpPartialBody},
	{Name: OpFlap, Sustained: true, Burst: true},
}

// FaultError is an injected network failure. Forwarded tells the retry
// ladder whether request bytes may have reached the peer — the property
// that decides whether re-issuing a non-idempotent request is sound.
type FaultError struct {
	Op        string     // operator name
	Call      fault.Call // interception point
	Target    string     // "host/path" of the round trip
	Forwarded bool       // request bytes may have reached the peer
	Err       error      // underlying errno / sentinel
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("netfault: %s on %s %s: %v", e.Op, e.Call, e.Target, e.Err)
}
func (e *FaultError) Unwrap() error { return e.Err }

// Timeout makes a blackhole's error satisfy net.Error's timeout probe, the
// way a real swallowed connection surfaces.
func (e *FaultError) Timeout() bool { return e.Op == OpBlackhole }

// Temporary is retained for net.Error compatibility.
func (e *FaultError) Temporary() bool { return !e.Forwarded }

// Injector wraps transports with armed fault operators; the embedded
// schedule supplies Arm, ArmSpec, Heal, HealTarget, Counts, and Fired. The
// Arm target filter matches "host/path".
type Injector struct {
	*fault.Schedule
	// MaxBlock caps how long a blackhole stalls when the caller's context
	// has no sooner deadline. <=0 means 1s. Chaos scenarios shrink it so a
	// partitioned run finishes in test time.
	MaxBlock time.Duration
	// SlowFor is the slow-response operator's unit delay; the injected
	// latency is 1–4× this. <=0 means 5ms.
	SlowFor time.Duration
}

// NewInjector returns an empty fault plan.
func NewInjector() *Injector {
	return &Injector{Schedule: fault.NewSchedule("netfault", operators)}
}

// maxBlock returns the blackhole stall cap.
func (in *Injector) maxBlock() time.Duration {
	if in.MaxBlock > 0 {
		return in.MaxBlock
	}
	return time.Second
}

// slowFor returns one slow-response delay drawn from the operator's seed.
func (in *Injector) slowFor(a *fault.Armed) time.Duration {
	unit := in.SlowFor
	if unit <= 0 {
		unit = 5 * time.Millisecond
	}
	return time.Duration(a.Scale(2)) * unit
}

// errFor builds the FaultError for a fired operator; nil means the
// operator injects behavior (latency) rather than an error.
func errFor(a *fault.Armed, call fault.Call, target string) *FaultError {
	switch a.Op {
	case OpConnRefused, OpFlap:
		return &FaultError{Op: a.Op, Call: call, Target: target, Err: syscall.ECONNREFUSED}
	case OpConnReset:
		return &FaultError{Op: a.Op, Call: call, Target: target, Forwarded: true, Err: syscall.ECONNRESET}
	case OpBlackhole:
		return &FaultError{Op: a.Op, Call: call, Target: target, Forwarded: true, Err: syscall.ETIMEDOUT}
	case OpPartialBody:
		return &FaultError{Op: a.Op, Call: call, Target: target, Forwarded: true, Err: syscall.ECONNRESET}
	}
	return nil
}
