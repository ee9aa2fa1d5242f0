// Package chaos is the deterministic scenario engine for the serving and
// audit planes. A Scenario is data: a topology (N≥1 shard collectors behind
// one gateway, followed live by a shard-parallel auditor), a load, a script
// of steps that arm and heal faults and crash and restart components, and
// what the script is expected to cost. Run replays it and checks the one
// invariant set every robustness claim in this module reduces to:
//
//   - the gateway answers every arrival with 200, 429 or 503 — each 429 and
//     503 hinted with Retry-After — and a 503 only for a shard the script
//     faulted;
//   - admission peaks never exceed their ceilings: overload is shed, never
//     queued without bound;
//   - every 200-acked request is a REQ in a sealed, balanced epoch of the
//     shard that served it;
//   - evidence is never destroyed: every trace/advice/manifest file that
//     ever existed still exists afterwards, possibly quarantined;
//   - infrastructure faults never manufacture accusations: an honest server
//     under chaos is graded Accepted or Unauditable, never rejected, and
//     Unauditable only where the scenario says its faults strand evidence;
//   - verdicts are deterministic: an epoch graded more than once (auditor
//     rebuilds, lost checkpoints, the post-run re-audits) never flips, and
//     the verdicts, merge and Stats are identical at every lane and
//     audit-worker count.
//
// Violations are collected in Result.Violations rather than returned as
// errors, so a scenario can observe several at once.
package chaos

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/fault"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// Topology is the system under test: Shards collectors of App behind one
// gateway.
type Topology struct {
	// App names the application (harness.SpecByName). Only wiki's store
	// keys are page-local, so only wiki runs at Shards > 1.
	App    string `json:"app"`
	Shards int    `json:"shards"`
	// EpochRequests is each shard's seal threshold.
	EpochRequests int `json:"epochRequests"`
	// MaxInflight is each shard's admission window; 0 keeps the collector's
	// default.
	MaxInflight int `json:"maxInflight,omitempty"`
}

// Load is the offered traffic.
type Load struct {
	// Seed seeds the workload generator and the collectors' schedulers.
	Seed     int64 `json:"seed"`
	Requests int   `json:"requests"`
	// Outstanding selects the loop. At most 1 is a closed loop: one request
	// at a time, the auditor following after each — fully deterministic.
	// More is an open-loop burst: every arrival is due at once, this many
	// may be outstanding, and an arrival past the bound is shed at the
	// source; the auditor drains afterwards.
	Outstanding int `json:"outstanding,omitempty"`
	// SlowEvery trickles every Nth request body a few bytes at a time — the
	// slowloris shape. 0 never.
	SlowEvery int `json:"slowEvery,omitempty"`
}

// Step kinds.
const (
	DoArm         = "arm"
	DoHeal        = "heal"
	DoCrash       = "crash"
	DoRestart     = "restart"
	DoKillAuditor = "kill-auditor"
)

// Components an arm or heal step addresses.
const (
	// OnCollector is the filesystem under every shard's collector
	// (iofault); Target filters by path, e.g. ".advice" or "shard-01/".
	OnCollector = "collector"
	// OnAuditd is the filesystem under the live auditor (iofault).
	OnAuditd = "auditd"
)

// Step is one scripted action, applied before request At (0-based). Steps
// apply strictly in order: a step waits for its index and, with MidEpoch,
// for its condition, and later steps wait behind it.
type Step struct {
	At int    `json:"at"`
	Do string `json:"do"`
	// On is the component an arm or heal addresses.
	On string `json:"on,omitempty"`
	// Shard is the shard a crash or restart addresses.
	Shard int `json:"shard,omitempty"`
	// Spec is an arm step's "op[:seed[:times]]" from iofault's catalogue.
	Spec string `json:"spec,omitempty"`
	// Target narrows a collector or auditd arm to matching paths.
	Target string `json:"target,omitempty"`
	// MidEpoch defers the step until shard Shard's open epoch holds at
	// least one request, so a later crash provably strands evidence.
	MidEpoch bool `json:"midEpoch,omitempty"`
}

// Expect is what the script is expected to cost.
type Expect struct {
	// Unauditable lists the shards that must end with at least one epoch
	// graded Unauditable; every other shard must have none.
	Unauditable []int `json:"unauditable,omitempty"`
}

// Scenario is a deterministic chaos script.
type Scenario struct {
	Topology Topology `json:"topology"`
	Load     Load     `json:"load"`
	Steps    []Step   `json:"steps,omitempty"`
	Expect   Expect   `json:"expect"`
}

// Result is what a scenario run observed.
type Result struct {
	// The arrival ledger: every offered request is in exactly one bucket —
	// served, shed by a shard (429), degraded by the gateway (hinted 503)
	// or, open loop only, shed at the source.
	loadgen.Ledger
	ShedLocal int `json:"shedLocal"`
	// Sealed counts sealed epochs across all shards.
	Sealed int `json:"sealed"`
	// Gateway and Admission are the per-shard front-door counters and
	// admission gauges at shutdown.
	Gateway   []gateway.ShardCounters        `json:"gateway"`
	Admission []collectorhttp.AdmissionState `json:"admission"`
	// Audit is the post-run re-audit at one lane per shard; the Tally
	// counts its per-epoch verdicts across the topology.
	Audit auditd.ShardedResult `json:"audit"`
	Tally
	// AuditorRestarts counts the live auditor's lane rebuilds plus scripted
	// kills.
	AuditorRestarts int `json:"auditorRestarts"`
	// Violations are invariant breaches; empty on a sound run.
	Violations []string `json:"violations,omitempty"`
}

// VerdictKey renders a sharded audit's verdict-affecting content as one
// comparable string — codes only, since reasons embed scratch paths.
func VerdictKey(res auditd.ShardedResult) string {
	var b strings.Builder
	for _, rep := range res.Shards {
		fmt.Fprintf(&b, "shard%d[%s]:", rep.Shard, rep.Code)
		for _, v := range rep.Verdicts {
			fmt.Fprintf(&b, "%d=%s;", v.Epoch, v.Code)
		}
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "merge=%s", res.Merge.Code)
	return b.String()
}

// Reaudit audits sealed logs from scratch — no checkpoint, the real
// filesystem — twice: one lane per shard with sequential epoch audits, then
// a single lane with four audit workers. It returns the first pass and a
// description of how the second differed (verdicts, merge, or Stats); ""
// is the determinism invariant holding. cfg names the topology (Root) and
// may set Limits and OnVerdict.
func Reaudit(ctx context.Context, cfg auditd.ShardedConfig) (auditd.ShardedResult, string, error) {
	var out [2]auditd.ShardedResult
	for i, p := range [2]struct{ lanes, workers int }{{0, 1}, {1, 4}} {
		cfg.Lanes, cfg.AuditWorkers = p.lanes, p.workers
		sh, err := auditd.NewSharded(cfg)
		if err != nil {
			return out[0], "", err
		}
		if out[i], err = sh.Audit(ctx); err != nil {
			return out[0], "", err
		}
	}
	var diff string
	if a, b := VerdictKey(out[0]), VerdictKey(out[1]); a != b || out[0].Stats != out[1].Stats {
		diff = fmt.Sprintf("audit diverged across lane and worker counts:\n  lane per shard, 1 worker: %s %+v\n  1 lane, 4 workers:        %s %+v",
			a, out[0].Stats, b, out[1].Stats)
	}
	return out[0], diff, nil
}

type runner struct {
	sc      Scenario
	reqs    []server.Request
	root    string
	ckptDir string

	cInj *iofault.Injector
	aInj *iofault.Injector

	top *gateway.Local
	ts  *httptest.Server
	aud *auditd.Sharded

	next    int          // first step not yet applied
	faulted map[int]bool // shards the script crashes

	mu  sync.Mutex // guards everything below; requests and lanes run concurrently
	res *Result
	// graded is each (shard, epoch)'s first verdict; evidence every evidence
	// file ever seen.
	graded   map[[2]uint64]core.RejectCode
	evidence map[string]bool
}

// quiet keeps retry loops from sleeping on the scenario's clock.
var quiet = fault.Backoff{Sleep: func(time.Duration) {}}

// Run replays the scenario in dir (a scratch directory the caller owns)
// and reports what happened. The error return is for a malformed scenario
// or runner breakage — invariant violations land in Result.Violations.
func Run(dir string, sc Scenario) (*Result, error) {
	spec, err := sc.validate()
	if err != nil {
		return nil, err
	}
	reqs, err := workload.For(sc.Topology.App, workload.Mixed, sc.Load.Requests, sc.Load.Seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		sc:       sc,
		reqs:     reqs,
		root:     filepath.Join(dir, "shards"),
		ckptDir:  filepath.Join(dir, "auditd.ckpt"),
		cInj:     iofault.NewInjector(nil),
		aInj:     iofault.NewInjector(nil),
		faulted:  map[int]bool{},
		res:      &Result{},
		graded:   map[[2]uint64]core.RejectCode{},
		evidence: map[string]bool{},
	}
	for _, st := range sc.Steps {
		if st.Do == DoCrash {
			r.faulted[st.Shard] = true
		}
	}
	r.top, err = gateway.NewLocal(gateway.LocalConfig{
		Spec:          spec,
		Root:          r.root,
		Map:           shard.Map{Shards: sc.Topology.Shards, KeyFields: []string{"id", "page"}},
		EpochRequests: sc.Topology.EpochRequests,
		Seed:          sc.Load.Seed,
		Limits:        verifier.DefaultLimits(),
		FS:            r.cInj,
		Backoff:       quiet,
		MaxInflight:   sc.Topology.MaxInflight,
	})
	if err != nil {
		return nil, err
	}
	defer r.top.Close()
	r.ts = httptest.NewServer(r.top.Handler())
	defer r.ts.Close()
	if err := r.newAuditor(); err != nil {
		return nil, err
	}

	ctx := context.Background()
	load, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:        r.ts.URL,
		MaxOutstanding: sc.Load.Outstanding,
		SlowEvery:      sc.Load.SlowEvery,
		Client:         r.ts.Client(),
		Before:         r.applyDue,
		Outcome:        r.outcome,
	}, reqs)
	r.res.Ledger, r.res.ShedLocal = load.Ledger, load.ShedLocal
	if err != nil {
		return r.res, err
	}
	if r.next < len(sc.Steps) {
		return r.res, fmt.Errorf("chaos: step %d (%s at %d) never became due; the run proves nothing about it", r.next, sc.Steps[r.next].Do, sc.Steps[r.next].At)
	}
	if got := r.res.Served + r.res.Shed + r.res.Degraded + r.res.ShedLocal; got != sc.Load.Requests {
		r.violate("arrival ledger does not balance: %d outcomes booked for %d requests", got, sc.Load.Requests)
	}

	// Recovery: every fault condition ends and every dead shard rejoins, so
	// the final seal covers the whole topology — the recovered incarnation
	// is what seals a crashed shard's stranded tail.
	r.cInj.Heal()
	r.aInj.Heal()
	r.res.Gateway = r.top.Gateway.Counters()
	for s := 0; s < sc.Topology.Shards; s++ {
		if r.top.Collector(s) == nil {
			if err := r.top.Restart(s); err != nil {
				return r.res, fmt.Errorf("chaos: restarting shard %d: %w", s, err)
			}
		}
		adm := r.top.Collector(s).Status().Admission
		r.res.Admission = append(r.res.Admission, adm)
		if adm.PeakInflight > adm.MaxInflight || adm.PeakQueuedBytes > adm.MaxQueuedBytes {
			r.violate("shard %d admission peaked past its ceilings: %+v", s, adm)
		}
	}
	r.ts.Close()
	if err := r.top.Close(); err != nil {
		return r.res, fmt.Errorf("chaos: sealing topology: %w", err)
	}
	if _, err := r.aud.RunOnce(ctx); err != nil {
		return r.res, fmt.Errorf("chaos: audit drain with every fault healed: %w", err)
	}
	live := r.aud.Result()
	r.scanEvidence()
	var breaches []string
	if r.res.Sealed, breaches, err = AckedSealed(r.root, load.Acked); err != nil {
		return r.res, err
	}
	r.breach(breaches...)

	var diff string
	r.res.Audit, diff, err = Reaudit(ctx, auditd.ShardedConfig{
		Root: r.root, Limits: verifier.DefaultLimits(), OnVerdict: r.onVerdict,
	})
	if err != nil {
		return r.res, err
	}
	if diff != "" {
		r.violate("%s", diff)
	}
	if live.Merge.Code != r.res.Audit.Merge.Code {
		r.violate("live auditor merged [%s], re-audit merged [%s]", live.Merge.Code, r.res.Audit.Merge.Code)
	}
	r.bookLaneRestarts(live)
	r.res.Tally, breaches = GradeHonest(r.res.Audit, sc.Expect.Unauditable)
	r.breach(breaches...)
	r.scanEvidence()
	return r.res, nil
}

// validate rejects malformed scenarios before anything boots.
func (sc Scenario) validate() (harness.AppSpec, error) {
	spec, err := harness.SpecByName(sc.Topology.App)
	if err != nil {
		return spec, err
	}
	t := sc.Topology
	if t.Shards < 1 || t.EpochRequests <= 0 || sc.Load.Requests <= 0 {
		return spec, fmt.Errorf("chaos: scenario needs positive Shards, EpochRequests and Requests")
	}
	if t.MaxInflight < 0 || sc.Load.Outstanding < 0 || sc.Load.SlowEvery < 0 {
		return spec, fmt.Errorf("chaos: MaxInflight, Outstanding and SlowEvery must not be negative")
	}
	if t.Shards > 1 && t.App != "wiki" {
		return spec, fmt.Errorf("chaos: %d shards need a shardable app; %q's store keys cross shards", t.Shards, t.App)
	}
	inRange := func(s int) bool { return s >= 0 && s < t.Shards }
	at := 0
	for i, st := range sc.Steps {
		if st.At < at || st.At >= sc.Load.Requests {
			return spec, fmt.Errorf("chaos: step %d: at %d out of order or past the last request", i, st.At)
		}
		at = st.At
		if !inRange(st.Shard) {
			return spec, fmt.Errorf("chaos: step %d: shard %d out of range", i, st.Shard)
		}
		switch st.Do {
		case DoArm, DoHeal:
			if st.On != OnCollector && st.On != OnAuditd {
				return spec, fmt.Errorf("chaos: step %d: unknown component %q", i, st.On)
			}
			// Arming a scratch injector checks the spec against the
			// catalogue without touching the run's schedules.
			if st.Do == DoArm {
				if err := iofault.NewInjector(nil).ArmSpec(st.Spec, st.Target); err != nil {
					return spec, fmt.Errorf("chaos: step %d: %w", i, err)
				}
			}
		case DoCrash, DoRestart, DoKillAuditor:
		default:
			return spec, fmt.Errorf("chaos: step %d: unknown step kind %q", i, st.Do)
		}
	}
	for _, s := range sc.Expect.Unauditable {
		if !inRange(s) {
			return spec, fmt.Errorf("chaos: expectation names shard %d, out of range", s)
		}
	}
	return spec, nil
}

// newAuditor builds the live auditor from the durable checkpoints. Replacing
// the previous one is an auditor kill: its in-memory carry dies with it.
func (r *runner) newAuditor() error {
	if r.aud != nil {
		r.bookLaneRestarts(r.aud.Result())
	}
	aud, err := auditd.NewSharded(auditd.ShardedConfig{
		Root:          r.root,
		CheckpointDir: r.ckptDir,
		Limits:        verifier.DefaultLimits(),
		AuditWorkers:  1,
		FS:            r.aInj,
		Backoff:       quiet,
		OnVerdict:     r.onVerdict,
	})
	if err != nil {
		return fmt.Errorf("chaos: auditor: %w", err)
	}
	r.aud = aud
	return nil
}

// bookLaneRestarts adds an outgoing auditor's lane rebuilds to the tally.
func (r *runner) bookLaneRestarts(res auditd.ShardedResult) {
	for _, rep := range res.Shards {
		r.res.AuditorRestarts += rep.Restarts
	}
}

// applyDue applies, in order, every step that is due before request i.
func (r *runner) applyDue(i int) error {
	for ; r.next < len(r.sc.Steps); r.next++ {
		st := r.sc.Steps[r.next]
		if st.At > i {
			return nil
		}
		if st.MidEpoch {
			col := r.top.Collector(st.Shard)
			if col == nil || col.Status().ActiveRequests == 0 {
				return nil
			}
		}
		if err := r.apply(st); err != nil {
			return fmt.Errorf("chaos: step %d (%s): %w", r.next, st.Do, err)
		}
	}
	return nil
}

func (r *runner) apply(st Step) error {
	disk := r.cInj
	if st.On == OnAuditd {
		disk = r.aInj
	}
	switch st.Do {
	case DoArm:
		return disk.ArmSpec(st.Spec, st.Target)
	case DoHeal:
		disk.Heal()
	case DoCrash:
		return r.top.Crash(st.Shard)
	case DoRestart:
		return r.top.Restart(st.Shard)
	case DoKillAuditor:
		r.res.AuditorRestarts++
		return r.newAuditor()
	}
	return nil
}

func (r *runner) violate(format string, args ...any) {
	r.breach(fmt.Sprintf(format, args...))
}

func (r *runner) breach(lines ...string) {
	r.mu.Lock()
	r.res.Violations = append(r.res.Violations, lines...)
	r.mu.Unlock()
}

// outcome holds one answered arrival to the front-door invariants, and in
// the closed loop lets the live auditor follow it.
func (r *runner) outcome(i int, o loadgen.Outcome) {
	want := r.top.Map.ShardOf(value.Normalize(r.reqs[i].Input))
	switch {
	case o.Class == loadgen.NoAnswer:
		// The gateway itself must always answer; only the shards may be dark.
		r.violate("request %d: gateway unreachable: %v", i, o.Err)
	case o.Shard != strconv.Itoa(want):
		r.violate("request %d: shard header %q, map says %d", i, o.Shard, want)
	}
	switch o.Class {
	case loadgen.Shed:
		if !o.Hinted {
			r.violate("request %d: 429 without Retry-After", i)
		}
	case loadgen.Degraded:
		if !r.faulted[want] {
			r.violate("request %d: shard %d degraded, but the script never faulted it", i, want)
		}
	case loadgen.Other:
		r.violate("request %d: %s — faults and overload must surface as an acked 200, 429 or hinted 503, nothing else", i, o)
	}
	if r.sc.Load.Outstanding <= 1 {
		// A pass that fails here failed on a fault still armed; the lane
		// rebuilds itself on the next one, and the final drain must succeed.
		_, _ = r.aud.RunOnce(context.Background())
		r.scanEvidence()
	}
}

// onVerdict sees every verdict any auditor reaches — live, rebuilt, or
// re-auditing — and holds each (shard, epoch) to its first grade.
func (r *runner) onVerdict(s int, v auditd.Verdict) {
	k := [2]uint64{uint64(s), v.Epoch}
	r.mu.Lock()
	first, seen := r.graded[k]
	if !seen {
		r.graded[k] = v.Code
	}
	r.mu.Unlock()
	if seen && first != v.Code {
		r.violate("verdict flip: shard %d epoch %d graded [%s] then [%s]", s, v.Epoch, first, v.Code)
	}
}

// scanEvidence lists every shard directory with the real filesystem (so the
// probe never consumes an injected schedule) and checks that no evidence
// file seen before has disappeared.
func (r *runner) scanEvidence() {
	present := map[string]bool{}
	for s := 0; s < r.sc.Topology.Shards; s++ {
		entries, err := os.ReadDir(shard.Dir(r.root, s))
		if err != nil {
			r.violate("evidence scan of shard %d: %v", s, err)
			return
		}
		for _, ent := range entries {
			base := strings.TrimSuffix(ent.Name(), ".quarantined")
			if strings.HasPrefix(base, "ep") && (strings.HasSuffix(base, ".trace") ||
				strings.HasSuffix(base, ".advice") || strings.HasSuffix(base, ".manifest")) {
				present[fmt.Sprintf("shard-%02d/%s", s, base)] = true
			}
		}
	}
	for name := range r.evidence {
		if !present[name] {
			r.violate("evidence deleted: %s", name)
		}
	}
	for name := range present {
		r.evidence[name] = true
	}
}

// AckedSealed checks the zero-evidence-loss invariant over the sealed
// topology under root: every RID a client saw 200 for — acked, keyed by
// serving shard as the X-Karousos-Shard header names it (loadgen's
// Result.Acked) — is a REQ in a sealed, balanced epoch of that shard. It
// returns how many epochs the topology sealed and one line per breach.
func AckedSealed(root string, acked map[string][]string) (sealed int, breaches []string, err error) {
	m, err := shard.ReadMap(root)
	if err != nil {
		return 0, nil, err
	}
	for key, rids := range acked {
		if s, err := strconv.Atoi(key); err != nil || s < 0 || s >= m.Shards {
			breaches = append(breaches, fmt.Sprintf("%d acked requests name shard %q, which the %d-shard map does not have", len(rids), key, m.Shards))
		}
	}
	for s, dir := range m.Dirs(root) {
		manifests, err := epochlog.ListSealed(dir)
		if err != nil {
			return sealed, breaches, err
		}
		sealed += len(manifests)
		inLog := map[string]bool{}
		for _, man := range manifests {
			tr, _, _, err := epochlog.ReadSealed(dir, man.Seq, epochlog.Options{})
			if err != nil {
				return sealed, breaches, err
			}
			if err := tr.CheckBalanced(); err != nil {
				breaches = append(breaches, fmt.Sprintf("shard %d epoch %d sealed unbalanced: %v", s, man.Seq, err))
			}
			for _, rid := range tr.RIDs() {
				inLog[rid] = true
			}
		}
		for _, rid := range acked[strconv.Itoa(s)] {
			if !inLog[rid] {
				breaches = append(breaches, fmt.Sprintf("shard %d: acked rid %s missing from the sealed log", s, rid))
			}
		}
	}
	return sealed, breaches, nil
}

// Tally counts a sharded audit's per-epoch verdicts.
type Tally struct {
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	Unauditable int `json:"unauditable"`
}

// GradeHonest tallies the audit of a run that suffered infrastructure
// faults only and applies the honest-run invariant, one line per breach: a
// rejection is always false, and Unauditable is owed on exactly the shards
// whose evidence the faults stranded.
func GradeHonest(res auditd.ShardedResult, owedShards []int) (t Tally, breaches []string) {
	breach := func(format string, args ...any) { breaches = append(breaches, fmt.Sprintf(format, args...)) }
	owed := map[int]bool{}
	for _, s := range owedShards {
		owed[s] = true
	}
	for _, rep := range res.Shards {
		unauditable := 0
		for _, v := range rep.Verdicts {
			switch v.Code {
			case "":
				t.Accepted++
			case core.RejectUnauditable:
				unauditable++
			default:
				t.Rejected++
				breach("false reject: shard %d epoch %d [%s] %s", rep.Shard, v.Epoch, v.Code, v.Reason)
			}
		}
		t.Unauditable += unauditable
		if owed[rep.Shard] && unauditable == 0 {
			breach("shard %d has no unauditable epoch: the faults stranded no evidence there", rep.Shard)
		}
		if !owed[rep.Shard] && unauditable > 0 {
			breach("shard %d graded %d epochs unauditable; none is owed there", rep.Shard, unauditable)
		}
	}
	switch m := res.Merge; {
	case m.Code == "", m.Code == core.RejectUnauditable && len(owed) > 0:
	default:
		breach("combined verdict [%s] after infrastructure faults only: %s", m.Code, m.Reason)
	}
	return t, breaches
}
