package auditd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
)

// The sharded auditor. A deployment is a topology of N≥1 shards, one
// epoch log per shard (a bare collector log is the one-shard topology);
// the cross-epoch carry chains *within* a shard but never across shards,
// so the per-shard audits are independent up to the final merge check.
// Sharded exploits that: one audit lane per shard-log directory, each an
// Auditor with its own checkpoint and carry, run concurrently up to the
// lane budget, then joined by the cross-shard checks (routing and
// partition, internal/shard) into one combined verdict. Lane scheduling
// never reaches the verdict: each lane's outcome is a deterministic
// function of its shard's evidence, and the merge is a deterministic
// function of the outcomes.
//
// A lane's failure handling is the trust boundary in miniature. A coded
// rejection other than InternalFault is the audit's verdict on the server:
// re-running cannot change it and must not, so the lane halts and reports
// it. An InternalFault (the verifier failed on some input) or a plain
// infrastructure error (epoch unreadable past iofault.Retry) says nothing
// about the server, and the pass returns it as an error. Nothing is
// restarted in-process: the verdict is a deterministic function of the
// evidence, so re-running on the same evidence fails the same way. The
// lane keeps its auditor, whose cursor stops where grading did, so the
// next pass — the next follow tick, or a restarted process reading the
// durable checkpoint — resumes there.

// ShardedConfig describes a shard-parallel auditor.
type ShardedConfig struct {
	// Root is the topology root holding shardmap.json and the shard-NN
	// epoch-log directories — or a bare epoch log, which is audited as the
	// one-shard topology (see Topology).
	Root string
	// Lanes bounds how many shard audits run concurrently. <=0 means one
	// lane per shard. The combined verdict is identical at every setting —
	// the sharded differential tests pin this.
	Lanes int
	// CheckpointDir, when set, holds one resume file per lane
	// (checkpoint-shard-NN.json). Empty keeps all cursors in memory.
	CheckpointDir string
	// Limits bounds each epoch's audit, as in Config.
	Limits verifier.Limits
	// AuditWorkers is each epoch audit's parallelism, as in Config.
	AuditWorkers int
	// MemoMaxBytes enables the re-execution memo cache per lane, as in
	// Config — one independent cache per shard, since tag-group closures
	// never repeat across shards (rids are routed disjointly).
	MemoMaxBytes int
	// GraphDir, when set, receives each lane's execution graphs under
	// shard-NN/, as in Config.GraphDir.
	GraphDir string
	// Poll is the follow-mode polling interval. Defaults to 200ms.
	Poll time.Duration
	// FS is as in Config.
	FS iofault.FS
	// OnVerdict, when set, is called with every per-epoch verdict as a
	// lane reaches it, tagged with the lane's shard index.
	OnVerdict func(shardIndex int, v Verdict)
}

func (cfg ShardedConfig) fs() iofault.FS {
	if cfg.FS == nil {
		return iofault.OS
	}
	return cfg.FS
}

// ShardReport is one lane's observable state inside a ShardedResult.
type ShardReport struct {
	Shard int    `json:"shard"`
	Dir   string `json:"dir"`
	// Code/Reason mirror the lane's Outcome: "" accepted-so-far,
	// Unauditable for an unanchored tail, any other code a rejection that
	// halted the lane.
	Code     core.RejectCode `json:"code,omitempty"`
	Reason   string          `json:"reason,omitempty"`
	Status   Status          `json:"status"`
	Verdicts []Verdict       `json:"verdicts,omitempty"`
}

// ShardedResult is the combined state of every lane plus the merged
// verdict.
type ShardedResult struct {
	Shards []ShardReport     `json:"shards"`
	Merge  shard.MergeResult `json:"merge"`
	// Stats sums every lane's accepted-audit work counters.
	Stats verifier.Stats `json:"stats"`
}

// Accepted reports whether the merged verdict cleared the topology.
func (r ShardedResult) Accepted() bool { return r.Merge.Accepted() }

// lane is one shard's audit pipeline: an Auditor plus the lane's sticky
// verdict. A pass (step) exclusively owns its lane; the mutex covers
// concurrent snapshots from Result.
type lane struct {
	shard int
	dir   string
	cfg   Config // the lane Auditor's config

	mu  sync.Mutex
	aud *Auditor // built by the lane's first pass
	// halted is the lane's sticky verdict: a rejection (the lane stops
	// grading — re-running cannot change a verdict about the server).
	halted   *Reject
	verdicts []Verdict
}

// Sharded audits a sharded topology: one lane per shard directory.
type Sharded struct {
	cfg   ShardedConfig
	m     shard.Map
	lanes []*lane
}

// Topology applies the one deployment rule: a root holding shardmap.json is
// an N-shard topology with its logs under shard-NN; a root that is itself a
// collector's epoch log (it has the meta.json sidecar) is the one-shard
// topology whose only log is the root.
func Topology(root string) (shard.Map, []string, error) {
	m, err := shard.ReadMap(root)
	if err == nil {
		return m, m.Dirs(root), nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return shard.Map{}, nil, err
	}
	if _, merr := collectorhttp.ReadMeta(root); merr != nil {
		return shard.Map{}, nil, fmt.Errorf("%s is neither a topology root (%v) nor an epoch log (%v)", root, err, merr)
	}
	return shard.Map{Shards: 1}, []string{root}, nil
}

// CheckpointPath names lane s's resume file inside a checkpoint directory.
func CheckpointPath(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-shard-%02d.json", s))
}

// NewSharded resolves the topology and builds one lane per shard. Lane
// auditors are built by each lane's first pass, resolving each shard's app
// and mode from that directory's sidecar exactly as a single-directory
// auditor would.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	m, dirs, err := Topology(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("auditd: sharded: %w", err)
	}
	if cfg.Lanes <= 0 || cfg.Lanes > m.Shards {
		cfg.Lanes = m.Shards
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.CheckpointDir != "" {
		// The directory is this config's own concept (one resume file per
		// lane lives inside it), so creating it is this constructor's job —
		// no lane pass should fail on a missing parent.
		if err := cfg.fs().MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("auditd: sharded: checkpoint dir: %w", err)
		}
	}
	s := &Sharded{cfg: cfg, m: m}
	for i, dir := range dirs {
		l := &lane{shard: i, dir: dir}
		l.cfg = Config{
			Dir:          dir,
			Limits:       cfg.Limits,
			AuditWorkers: cfg.AuditWorkers,
			MemoMaxBytes: cfg.MemoMaxBytes,
			FS:           cfg.FS,
		}
		if cfg.CheckpointDir != "" {
			l.cfg.Checkpoint = CheckpointPath(cfg.CheckpointDir, i)
		}
		if cfg.GraphDir != "" {
			// Created here for the same reason as the checkpoint directory.
			l.cfg.GraphDir = shard.Dir(cfg.GraphDir, i)
			if err := cfg.fs().MkdirAll(l.cfg.GraphDir, 0o755); err != nil {
				return nil, fmt.Errorf("auditd: sharded: graph dir: %w", err)
			}
		}
		if m.Shards > 1 {
			// Everything routes to the only shard of a one-shard map.
			l.cfg.routing = func(tr *trace.Trace) error { return m.CheckRouting(l.shard, tr) }
		}
		l.cfg.OnVerdict = func(v Verdict) {
			l.mu.Lock()
			l.verdicts = append(l.verdicts, v)
			l.mu.Unlock()
			if cfg.OnVerdict != nil {
				cfg.OnVerdict(l.shard, v)
			}
		}
		s.lanes = append(s.lanes, l)
	}
	return s, nil
}

// RunOnce drains every lane once: each lane routing-checks and audits, epoch
// by epoch, all currently sealed epochs past its cursor. Lanes run
// concurrently up to the lane budget; the pass returns how many epochs were
// graded across all lanes and the first error by shard order — an
// infrastructure failure or an InternalFault, after which that lane's next
// pass resumes where its grading stopped. Lane verdicts — including
// rejections — are not errors here; they surface through Result.
func (s *Sharded) RunOnce(ctx context.Context) (int, error) {
	type stepResult struct {
		n   int
		err error
	}
	results := make([]stepResult, len(s.lanes))
	sem := make(chan struct{}, s.cfg.Lanes)
	var wg sync.WaitGroup
	for i := range s.lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			n, err := s.lanes[i].step(ctx)
			results[i] = stepResult{n: n, err: err}
		}(i)
	}
	wg.Wait()
	processed := 0
	for i := range results {
		processed += results[i].n
	}
	for i := range results {
		if results[i].err != nil {
			return processed, fmt.Errorf("auditd: sharded: shard %d: %w", i, results[i].err)
		}
	}
	return processed, nil
}

// Run follows all shard logs until the context is cancelled or every lane
// has halted on a rejection (both nil: the verdict is in Result), or a pass
// fails (that error). Halted lanes stop grading but the rest keep
// following — one misbehaving shard must not blind the audit of the others;
// the combined verdict carries the rejection either way.
func (s *Sharded) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.Poll)
	defer ticker.Stop()
	for {
		if _, err := s.RunOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		following := false
		for _, l := range s.lanes {
			following = following || l.haltedNow() == nil
		}
		if !following {
			return nil
		}
		//karousos:detlint-ok poll-loop plumbing; each lane grades its epochs strictly in sequence regardless of which wakeup fires
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}

// Audit is the one-shot entry point: drain every lane over the currently
// sealed epochs, then merge. Infrastructure errors (an unreadable trusted
// channel, a failed checkpoint write) and InternalFaults return as errors;
// every graded outcome — accept, reject, unauditable, conflict — is in the
// result.
func (s *Sharded) Audit(ctx context.Context) (ShardedResult, error) {
	if _, err := s.RunOnce(ctx); err != nil {
		return ShardedResult{}, err
	}
	return s.Result(), nil
}

// Result snapshots every lane and composes the combined verdict via the
// cross-shard merge check.
func (s *Sharded) Result() ShardedResult {
	res := ShardedResult{Shards: make([]ShardReport, len(s.lanes))}
	outs := make([]shard.Outcome, len(s.lanes))
	for i, l := range s.lanes {
		rep, out := l.snapshot()
		res.Shards[i] = rep
		res.Stats.Add(rep.Status.Stats)
		outs[i] = out
	}
	res.Merge = shard.Merge(s.m, outs)
	return res
}

// step is one lane pass: grade newly sealed epochs — routing, then audit,
// epoch by epoch. The caller owns the lane for the duration; step is the
// only writer of l.aud, so it reads it without the lock.
func (l *lane) step(ctx context.Context) (int, error) {
	if l.haltedNow() != nil {
		return 0, nil
	}
	if l.aud == nil {
		// Building an auditor needs only the trusted sidecar and the
		// checkpoint: failure is infrastructure, for the next pass.
		aud, err := New(l.cfg)
		if err != nil {
			return 0, err
		}
		l.mu.Lock()
		l.aud = aud
		l.mu.Unlock()
	}
	n, err := l.aud.RunOnce(ctx)
	var rej *Reject
	if err != nil && ctx.Err() == nil && errors.As(err, &rej) && rej.Code != core.RejectInternalFault {
		l.halt(rej)
		return n, nil
	}
	return n, err
}

func (l *lane) haltedNow() *Reject {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.halted
}

// halt makes rej the lane's sticky outcome. The verdict itself already
// reached the lane through the auditor's OnVerdict.
func (l *lane) halt(rej *Reject) {
	l.mu.Lock()
	if l.halted == nil {
		l.halted = rej
	}
	l.mu.Unlock()
}

// snapshot builds the lane's report and its merge-check outcome.
func (l *lane) snapshot() (ShardReport, shard.Outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var st Status
	var carry *verifier.CarryState
	unanchored := false
	if l.aud != nil {
		st = l.aud.Status()
		carry = l.aud.Carry()
		unanchored = l.aud.Unanchored()
	}
	rep := ShardReport{
		Shard:    l.shard,
		Dir:      l.dir,
		Status:   st,
		Verdicts: append([]Verdict(nil), l.verdicts...),
	}
	out := shard.Outcome{Shard: l.shard, Dir: l.dir}
	switch {
	case l.halted != nil:
		rep.Code, rep.Reason = l.halted.Code, l.halted.Reason
		out.Code, out.Reason = l.halted.Code, l.halted.Reason
	case unanchored:
		rep.Code = core.RejectUnauditable
		rep.Reason = fmt.Sprintf("carry unanchored after epoch %d", st.LastProcessed)
		out.Code, out.Reason = rep.Code, rep.Reason
		out.Unanchored = true
	default:
		out.Carry = carry
	}
	return rep, out
}
