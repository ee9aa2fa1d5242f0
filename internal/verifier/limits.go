package verifier

import (
	"context"
	"fmt"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
)

// Limits bounds the resources one audit may consume. The advice is
// adversarial input: without bounds, an attacker-inflated opcount or a
// pathological graph can make the auditor allocate without limit or run
// forever — a denial-of-audit. Every bound rejects with ResourceLimit
// rather than crashing or stalling the process. A zero field means
// "unbounded" for that dimension, so the zero Limits preserves the old
// behavior; DefaultLimits returns production-shaped bounds.
type Limits struct {
	// MaxAdviceBytes bounds the serialized advice size a caller should
	// accept before decoding: the blob on the wire and the body it declares
	// it inflates to. Audit itself receives decoded advice, so this field is
	// enforced by CheckAdviceBlob at the decode boundary (auditd, harness),
	// not inside Audit.
	MaxAdviceBytes int
	// MaxHandlers bounds the total number of advised handler activations
	// (rid, hid pairs in opcounts).
	MaxHandlers int
	// MaxOpsPerHandler bounds any single advised opcount; an honest handler
	// issues one op per special operation, so this is effectively a bound on
	// handler length.
	MaxOpsPerHandler int
	// MaxGraphNodes / MaxGraphEdges bound the execution graph G.
	MaxGraphNodes int
	MaxGraphEdges int
	// Deadline is the wall-clock budget for the whole audit; exceeded
	// deadlines reject with ResourceLimit at the next cancellation check.
	Deadline time.Duration
	// MaxMemoEntryBytes bounds the accounted size of a single memo-cache
	// entry (Config.Memo); larger effect sets are simply not cached, so
	// one giant group cannot churn the whole LRU. 0 means an eighth of
	// the cache's byte budget.
	MaxMemoEntryBytes int
}

// DefaultLimits returns bounds sized for production audits: generous enough
// for the paper's 600-request workloads by two orders of magnitude, small
// enough that a hostile advice blob cannot stall or OOM the auditor.
func DefaultLimits() Limits {
	return Limits{
		MaxAdviceBytes:   advice.MaxExpandedBytes, // 256 MiB on the wire, and expanded
		MaxHandlers:      1 << 20,
		MaxOpsPerHandler: 1 << 20,
		MaxGraphNodes:    16 << 20,
		MaxGraphEdges:    64 << 20,
		Deadline:         5 * time.Minute,
	}
}

// CheckAdviceBytes enforces MaxAdviceBytes against a serialized advice size.
// Callers that decode wire-format advice should check before allocating
// decode-side structures.
func (l Limits) CheckAdviceBytes(n int) error {
	if l.MaxAdviceBytes > 0 && n > l.MaxAdviceBytes {
		return core.Reject{
			Code:   core.RejectResourceLimit,
			Reason: fmt.Sprintf("advice is %d bytes, limit %d", n, l.MaxAdviceBytes),
		}
	}
	return nil
}

// CheckAdviceBlob enforces MaxAdviceBytes against an advice blob before it
// is decoded: against its own length, and against the body length a KADV4
// frame declares (advice.BodySize), so a lower limit than the codec's own
// bounds the inflated body too. A frame whose declared length fails the
// codec's clamp is malformed.
func (l Limits) CheckAdviceBlob(blob []byte) error {
	if err := l.CheckAdviceBytes(len(blob)); err != nil {
		return err
	}
	n, err := advice.BodySize(blob)
	if err != nil {
		return err
	}
	return l.CheckAdviceBytes(n)
}

// pollInterval is how many poll() calls pass between deadline/graph budget
// checks; polling sites sit on per-operation paths, so checks stay cheap.
const pollInterval = 1024

// poll is called from every hot loop that untrusted advice can lengthen; it
// runs the budget checks every pollInterval calls.
func (v *Verifier) poll() {
	v.pollN++
	if v.pollN%pollInterval != 0 {
		return
	}
	v.checkBudgets()
}

// checkCtx rejects with ResourceLimit when the audit context is done
// (deadline or caller cancellation). It reads only immutable verifier
// fields, so shard and group workers may call it concurrently.
func (v *Verifier) checkCtx() {
	if v.ctx == nil {
		return
	}
	if err := v.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			core.RejectCodef(core.RejectResourceLimit, "audit deadline of %v exceeded", v.cfg.Limits.Deadline)
		}
		core.RejectCodef(core.RejectResourceLimit, "audit canceled: %v", err)
	}
}

// checkBudgets is checkCtx plus the execution-graph bounds. The graph checks
// are skipped before buildLayout creates it (init replay and carry injection
// poll too) and must only run on the coordinating goroutine.
func (v *Verifier) checkBudgets() {
	v.checkCtx()
	if v.eg == nil {
		return
	}
	lim := v.cfg.Limits
	if lim.MaxGraphNodes > 0 && v.eg.d.NumNodes() > lim.MaxGraphNodes {
		core.RejectCodef(core.RejectResourceLimit, "execution graph exceeds %d nodes", lim.MaxGraphNodes)
	}
	if lim.MaxGraphEdges > 0 && v.eg.d.NumEdges() > lim.MaxGraphEdges {
		core.RejectCodef(core.RejectResourceLimit, "execution graph exceeds %d edges", lim.MaxGraphEdges)
	}
}
