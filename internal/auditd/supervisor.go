package auditd

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/fault"
)

// SupervisorOptions bounds the restart policy.
type SupervisorOptions struct {
	// MaxRestarts is how many times the audit loop is rebuilt after a
	// restartable failure before the supervisor gives up. Defaults to 3.
	MaxRestarts int
	// Backoff paces the restarts (and is inherited by each incarnation's
	// retry loops when the Config leaves its own Backoff zero).
	Backoff fault.Backoff
}

// Supervisor runs the audit loop and restarts it when it dies for a reason
// that is the auditor's — not the server's — fault.
//
// The restart decision is the trust boundary in miniature. A coded
// rejection other than InternalFault is the audit's verdict on the server:
// restarting cannot change it and must not, so the supervisor stops and
// reports it. An InternalFault (the verifier crashed on some input) or a
// plain infrastructure error (epoch unreadable past the retry budget) says
// nothing about the server; the supervisor rebuilds the auditor from its
// durable checkpoint and tries again. Crash consistency makes the rebuild
// sound: the checkpoint is written atomically after each graded epoch, so
// an incarnation that died mid-epoch re-grades exactly that epoch, and the
// determinism invariant (same evidence, same verdict) makes the re-grade
// converge.
type Supervisor struct {
	cfg  Config
	opts SupervisorOptions

	mu       sync.Mutex
	cur      *Auditor
	last     Status
	restarts int
	verdicts []Verdict
}

// NewSupervisor validates the restart policy; the first auditor is built
// lazily in Run so every incarnation is constructed the same way.
func NewSupervisor(cfg Config, opts SupervisorOptions) *Supervisor {
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 3
	}
	if cfg.Backoff.Base == 0 && cfg.Backoff.Attempts == 0 && cfg.Backoff.Sleep == nil {
		cfg.Backoff = opts.Backoff
	}
	return &Supervisor{cfg: cfg, opts: opts}
}

// Status reports the live incarnation's counters (or the last dead one's,
// between incarnations) plus the restart count.
func (s *Supervisor) Status() (Status, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return s.last, s.restarts
	}
	return s.cur.Status(), s.restarts
}

// Verdicts returns every verdict reached across all incarnations, in
// grading order. Epochs a restarted incarnation resumed past via the
// checkpoint appear once, from the incarnation that graded them.
func (s *Supervisor) Verdicts() []Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Verdict(nil), s.verdicts...)
	if s.cur != nil {
		out = append(out, s.cur.Verdicts()...)
	}
	return out
}

// restartable reports whether dying with err is the auditor's own problem.
func restartable(err error) bool {
	var rej *Reject
	if errors.As(err, &rej) {
		return rej.Code == core.RejectInternalFault
	}
	// Context cancellation is a shutdown, not a failure; anything else
	// non-reject is infrastructure.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// Run supervises the audit loop until the context is cancelled (nil), the
// audit rejects an epoch (*Reject), or the restart budget is exhausted
// (the last incarnation's error). Each incarnation is a fresh Auditor so
// any in-memory state poisoned by the failure is discarded; the durable
// checkpoint carries the resume point.
func (s *Supervisor) Run(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		a, err := New(s.cfg)
		if err != nil {
			return fmt.Errorf("auditd: supervisor: building auditor: %w", err)
		}
		s.mu.Lock()
		s.cur = a
		s.mu.Unlock()

		err = a.Run(ctx)

		s.mu.Lock()
		s.verdicts = append(s.verdicts, a.Verdicts()...)
		s.last = a.Status()
		s.cur = nil
		s.mu.Unlock()

		if err == nil || ctx.Err() != nil {
			return nil
		}
		if !restartable(err) {
			return err
		}
		if attempt >= s.opts.MaxRestarts {
			return fmt.Errorf("auditd: supervisor: giving up after %d restarts: %w", s.restarts, err)
		}
		s.mu.Lock()
		s.restarts++
		s.mu.Unlock()

		//karousos:nondeterminism-ok restart backoff sleep; supervision timing is not part of any verdict
		if s.opts.Backoff.Wait(ctx, attempt) != nil {
			return nil
		}
	}
}
