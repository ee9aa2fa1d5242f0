package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/workload"
)

// golden is what a scenario must reproduce. Every value in the built-in
// rows was recorded from the four runners this engine replaced
// (chaos.Run, RunOverload, RunShardChaos, RunPartition) at the commit
// before they were deleted, on three runs each; epochs are rendered as the
// old VerdictKey did, "epoch=code;" per shard.
type golden struct {
	epochs []string // per shard
	merge  string
	// The tallies are exact for closed-loop scenarios. An open-loop burst's
	// admit/shed split — and so its epoch count — is a race by construction
	// (the old runner's numbers were stable only on an idle machine), so
	// those rows leave everything zero and check pins what cannot vary.
	served, shed, degraded, accepted, unauditable int
}

const (
	ok4 = "1=<uncoded>;2=<uncoded>;3=<uncoded>;4=<uncoded>;"
	// The acceptance outage costs exactly epoch 2.
	outage2 = "1=<uncoded>;2=Unauditable;3=<uncoded>;4=<uncoded>;"
)

func acceptanceGolden() golden {
	return golden{epochs: []string{outage2}, merge: "<uncoded>", served: 40, accepted: 3, unauditable: 1}
}

var burstGolden = golden{merge: "<uncoded>"}

type row struct {
	name string
	sc   func(seed int64) Scenario
	want map[int64]golden // by seed
	// extra checks one scenario's own point, beyond the shared goldens.
	extra func(t *testing.T, sc Scenario, res *Result)
}

func builtin(name, app string) func(int64) Scenario {
	return func(seed int64) Scenario {
		sc, err := Builtin(name, app, seed)
		if err != nil {
			panic(err)
		}
		return sc
	}
}

// pipelineGolden is what `karousos-auditd pipeline -app <a> -n 200
// -epoch-requests 50` (seed 42) printed for every app at the commit before
// it was deleted: exit 0, served 200, sealed 4, accepted 4.
func pipelineGolden() golden {
	return golden{epochs: []string{ok4}, merge: "<uncoded>", served: 200, accepted: 4}
}

var rows = []row{
	// The old TestAcceptanceScenario / TestAllAppsSurviveAcceptance.
	{name: "acceptance/motd", sc: builtin("acceptance", "motd"), want: map[int64]golden{11: acceptanceGolden(), 23: acceptanceGolden()}},
	{name: "acceptance/stacks", sc: builtin("acceptance", "stacks"), want: map[int64]golden{11: acceptanceGolden(), 23: acceptanceGolden()}},
	{name: "acceptance/wiki", sc: builtin("acceptance", "wiki"), want: map[int64]golden{11: acceptanceGolden(), 23: acceptanceGolden()}},
	// The old TestShardChaosAcceptance.
	{name: "shard-kill", sc: builtin("shard-kill", ""), want: map[int64]golden{
		11: {epochs: []string{
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;4=<uncoded>;5=<uncoded>;",
			"1=<uncoded>;2=Unauditable;3=<uncoded>;4=<uncoded>;",
			ok4,
			"1=<uncoded>;2=<uncoded>;",
		}, merge: "<uncoded>", served: 60, accepted: 14, unauditable: 1},
		23: {epochs: []string{
			ok4,
			"1=<uncoded>;2=Unauditable;3=<uncoded>;4=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
		}, merge: "<uncoded>", served: 60, accepted: 13, unauditable: 1},
	}},
	// The old TestPartitionAcceptance: the blackhole must be paid for once,
	// then fast-failed by the open breaker.
	{name: "partition", sc: builtin("partition", ""), want: map[int64]golden{
		11: {epochs: []string{
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;4=<uncoded>;5=<uncoded>;6=<uncoded>;",
			"1=<uncoded>;2=Unauditable;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;4=<uncoded>;5=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
		}, merge: "Unauditable", served: 69, degraded: 11, accepted: 15, unauditable: 1},
		23: {epochs: []string{
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;4=<uncoded>;5=<uncoded>;",
			"1=<uncoded>;2=Unauditable;",
			ok4,
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
		}, merge: "Unauditable", served: 65, degraded: 15, accepted: 13, unauditable: 1},
	}, extra: func(t *testing.T, _ Scenario, res *Result) {
		if res.Gateway[1].FastFails == 0 {
			t.Errorf("victim breaker never fast-failed: %+v — the blackhole was paid for on every request", res.Gateway[1])
		}
	}},
	// The old TestPartitionFlapping: retries absorb part of the flapping.
	{name: "flap", sc: builtin("flap", ""), want: map[int64]golden{
		11: {epochs: []string{
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;4=<uncoded>;5=<uncoded>;",
			"1=<uncoded>;",
			ok4,
			"1=<uncoded>;2=<uncoded>;",
		}, merge: "<uncoded>", served: 51, degraded: 9, accepted: 12},
		23: {epochs: []string{
			ok4,
			ok4,
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
		}, merge: "<uncoded>", served: 60, accepted: 14},
	}, extra: func(t *testing.T, _ Scenario, res *Result) {
		if res.Gateway[1].Retries == 0 {
			t.Errorf("no retry absorbed the flapping: %+v", res.Gateway[1])
		}
	}},
	// The old TestPartitionGatewayRestart: served == requests is the point.
	{name: "gateway-restart", sc: builtin("gateway-restart", ""), want: map[int64]golden{
		11: {epochs: []string{
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;",
		}, merge: "<uncoded>", served: 40, accepted: 10},
		23: {epochs: []string{
			"1=<uncoded>;2=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;",
			"1=<uncoded>;2=<uncoded>;3=<uncoded>;",
		}, merge: "<uncoded>", served: 40, accepted: 10},
	}},
	// The old TestOverloadBurst / SlowFsync / SlowClient.
	{name: "overload-burst", sc: builtin("overload-burst", ""), want: map[int64]golden{11: burstGolden, 23: burstGolden}},
	{name: "overload-slow-fsync", sc: builtin("overload-slow-fsync", ""), want: map[int64]golden{11: burstGolden, 23: burstGolden}},
	{name: "overload-slow-client", sc: builtin("overload-slow-client", ""), want: map[int64]golden{11: burstGolden, 23: burstGolden}},

	// The old TestHonestRunUnderAuditorKills: repeatedly killing the auditor
	// (losing its in-memory carry every time) must not change any verdict —
	// the checkpoint plus determinism make every re-grade converge.
	{name: "auditor-kills", sc: func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "motd", Shards: 1, EpochRequests: 10},
			Load:     Load{Seed: seed, Requests: 40},
			Steps: []Step{
				{At: 12, Do: DoKillAuditor},
				{At: 25, Do: DoKillAuditor},
				{At: 33, Do: DoKillAuditor},
			},
		}
	}, want: map[int64]golden{5: {epochs: []string{ok4}, merge: "<uncoded>", served: 40, accepted: 4}},
		extra: func(t *testing.T, _ Scenario, res *Result) {
			if res.AuditorRestarts < 3 {
				t.Errorf("auditor restarts = %d, want at least the 3 scripted kills", res.AuditorRestarts)
			}
		}},
	// The old TestCheckpointFaultsDoNotFlipVerdicts: fsync failures on the
	// checkpoint path force lane rebuilds mid-run; every epoch still accepts
	// and no verdict flips.
	{name: "checkpoint-faults", sc: func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "motd", Shards: 1, EpochRequests: 10},
			Load:     Load{Seed: seed, Requests: 30},
			Steps: []Step{
				{At: 8, Do: DoArm, On: OnAuditd, Spec: fmt.Sprintf("fsync-fail:%d:2", seed), Target: ".ckpt"},
			},
		}
	}, want: map[int64]golden{7: {epochs: []string{"1=<uncoded>;2=<uncoded>;3=<uncoded>;"}, merge: "<uncoded>", served: 30, accepted: 3}},
		extra: func(t *testing.T, _ Scenario, res *Result) {
			if res.AuditorRestarts == 0 {
				t.Errorf("the checkpoint faults forced no lane rebuild; the scenario exercised nothing")
			}
		}},

	// The deleted pipeline subcommands, as zero-step scenarios.
	{name: "pipeline/wiki", sc: builtin("pipeline", "wiki"), want: map[int64]golden{42: pipelineGolden()}},
	{name: "pipeline/motd", sc: builtin("pipeline", "motd"), want: map[int64]golden{42: pipelineGolden()}},
	{name: "pipeline/stacks", sc: builtin("pipeline", "stacks"), want: map[int64]golden{42: pipelineGolden()}},
	{name: "pipeline/feeds", sc: builtin("pipeline", "feeds"), want: map[int64]golden{42: pipelineGolden()}},
	// `karousos-gateway pipeline -app wiki -shards 4 -n 120 -epoch-requests
	// 10` (seed 42): exit 0, served 120, shards audited 4/3/3/4 epochs.
	{name: "pipeline-sharded", sc: builtin("pipeline-sharded", ""), want: map[int64]golden{42: {
		epochs: []string{ok4, "1=<uncoded>;2=<uncoded>;3=<uncoded>;", "1=<uncoded>;2=<uncoded>;3=<uncoded>;", ok4},
		merge:  "<uncoded>", served: 120, accepted: 14,
	}}},
}

// check holds one run to its golden.
func check(t *testing.T, sc Scenario, res *Result, want golden) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Rejected != 0 {
		t.Errorf("false rejects: %s", VerdictKey(res.Audit))
	}
	if got := res.Audit.Merge.Code.String(); got != want.merge {
		t.Errorf("merge %s, want %s", got, want.merge)
	}
	if res.Sealed == 0 || res.Sealed != res.Accepted+res.Unauditable {
		t.Errorf("%d verdicts for %d sealed epochs", res.Accepted+res.Unauditable, res.Sealed)
	}
	if sc.Load.Outstanding > 1 {
		// A burst: some admitted, the excess shed, and all of it clean.
		if res.Served == 0 || res.Shed+res.ShedLocal == 0 || res.Degraded != 0 || res.Unauditable != 0 {
			t.Errorf("burst at 4x the window: served=%d shed=%d shedLocal=%d degraded=%d unauditable=%d",
				res.Served, res.Shed, res.ShedLocal, res.Degraded, res.Unauditable)
		}
	} else {
		if len(res.Audit.Shards) != len(want.epochs) {
			t.Fatalf("reports for %d shards, want %d", len(res.Audit.Shards), len(want.epochs))
		}
		for s, rep := range res.Audit.Shards {
			var b strings.Builder
			for _, v := range rep.Verdicts {
				fmt.Fprintf(&b, "%d=%s;", v.Epoch, v.Code)
			}
			if b.String() != want.epochs[s] {
				t.Errorf("shard %d verdicts %s, want %s", s, b.String(), want.epochs[s])
			}
		}
		if res.Accepted != want.accepted || res.Unauditable != want.unauditable {
			t.Errorf("accepted=%d unauditable=%d, want %d/%d", res.Accepted, res.Unauditable, want.accepted, want.unauditable)
		}
		if res.Served != want.served || res.Shed != want.shed || res.Degraded != want.degraded {
			t.Errorf("served=%d shed=%d degraded=%d, want %d/%d/%d", res.Served, res.Shed, res.Degraded, want.served, want.shed, want.degraded)
		}
	}
	if res.Unauditable == 0 && res.Audit.Stats.Requests != res.Served {
		t.Errorf("audit re-executed %d requests, clients saw %d acked", res.Audit.Stats.Requests, res.Served)
	}
}

// TestScenarios runs every row at every pinned seed twice: both runs must
// match the golden, which also makes them match each other — the per-seed
// determinism the deleted runners' *Deterministic tests checked.
func TestScenarios(t *testing.T) {
	for _, r := range rows {
		for seed, want := range r.want {
			t.Run(fmt.Sprintf("%s/seed%d", r.name, seed), func(t *testing.T) {
				t.Parallel()
				for run := 0; run < 2; run++ {
					sc := r.sc(seed)
					res, err := Run(t.TempDir(), sc)
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					check(t, sc, res, want)
					if r.extra != nil {
						r.extra(t, sc, res)
					}
				}
			})
		}
	}
}

// TestScenarioJSONRoundTrip: a scenario file is the Scenario type's JSON,
// and absent fields mean "none".
func TestScenarioJSONRoundTrip(t *testing.T) {
	blob, err := json.Marshal(builtin("shard-kill", "")(23))
	if err != nil {
		t.Fatal(err)
	}
	var sc Scenario
	if err := json.Unmarshal(blob, &sc); err != nil {
		t.Fatal(err)
	}
	res, err := Run(t.TempDir(), sc)
	if err != nil {
		t.Fatal(err)
	}
	check(t, sc, res, rows[3].want[23])

	var bare Scenario
	if err := json.Unmarshal([]byte(`{"topology":{"app":"stacks","shards":1,"epochRequests":10},"load":{"seed":5,"requests":20}}`), &bare); err != nil {
		t.Fatal(err)
	}
	if res, err = Run(t.TempDir(), bare); err != nil {
		t.Fatal(err)
	}
	check(t, bare, res, golden{epochs: []string{"1=<uncoded>;2=<uncoded>;"}, merge: "<uncoded>", served: 20, accepted: 2})
}

// TestScenarioValidation: malformed scripts are runner errors, not
// violations, and are refused before anything boots.
func TestScenarioValidation(t *testing.T) {
	base := func() Scenario {
		return Scenario{Topology: Topology{App: "wiki", Shards: 2, EpochRequests: 5}, Load: Load{Requests: 10}}
	}
	for name, mutate := range map[string]func(*Scenario){
		"unknown app":           func(sc *Scenario) { sc.Topology.App = "nope" },
		"unshardable app":       func(sc *Scenario) { sc.Topology.App = "motd" },
		"zero shards":           func(sc *Scenario) { sc.Topology.Shards = 0 },
		"zero requests":         func(sc *Scenario) { sc.Load.Requests = 0 },
		"zero epoch size":       func(sc *Scenario) { sc.Topology.EpochRequests = 0 },
		"negative outstanding":  func(sc *Scenario) { sc.Load.Outstanding = -1 },
		"step past the end":     func(sc *Scenario) { sc.Steps = []Step{{At: 10, Do: DoCrash}} },
		"steps out of order":    func(sc *Scenario) { sc.Steps = []Step{{At: 8, Do: DoCrash}, {At: 4, Do: DoRestart}} },
		"unknown step kind":     func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: "emp"}} },
		"victim out of range":   func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: DoCrash, Shard: 5}} },
		"unknown component":     func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: DoArm, On: "moon", Spec: "flap"}} },
		"heal without a target": func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: DoHeal}} },
		"unknown operator":      func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: DoArm, On: OnLink, Spec: "emp"}} },
		"wrong catalogue":       func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: DoArm, On: OnCollector, Spec: "blackhole"}} },
		"bad spec":              func(sc *Scenario) { sc.Steps = []Step{{At: 1, Do: DoArm, On: OnAuditd, Spec: "enospc:x"}} },
		"expectation off the map": func(sc *Scenario) {
			sc.Expect.Unauditable = []int{2}
		},
	} {
		sc := base()
		mutate(&sc)
		if res, err := Run(t.TempDir(), sc); err == nil || res != nil {
			t.Errorf("%s: accepted (res %v, err %v)", name, res, err)
		}
	}
	// A script that cannot run as written is an error too: restarting a
	// shard that is not down.
	sc := base()
	sc.Steps = []Step{{At: 1, Do: DoRestart}}
	if _, err := Run(t.TempDir(), sc); err == nil {
		t.Error("restart of a live shard accepted")
	}
}

// TestCommitModeDifferential drives the identical sequential workload
// through a group-commit collector and a per-request-fsync collector: the
// sealed evidence must be bit-identical (same epoch trace digests) and the
// audit must reach the same verdicts with the same work counters. Group
// commit is a durability batching strategy, never a semantic one.
func TestCommitModeDifferential(t *testing.T) {
	spec, err := harness.SpecByName("motd")
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.MOTD(24, workload.Mixed, 11)

	runMode := func(mode collectorhttp.CommitMode) (digests []string, out auditd.ShardedResult) {
		t.Helper()
		dir := t.TempDir()
		c, err := collectorhttp.New(collectorhttp.Config{
			Spec:          spec,
			Dir:           dir,
			Seed:          11,
			EpochRequests: 8,
			Commit:        mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(c.Handler())
		load, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: ts.URL, Client: ts.Client()}, reqs)
		if err != nil || load.Served != len(reqs) {
			t.Fatalf("mode %q: served %d of %d: %+v, %v", mode, load.Served, len(reqs), load, err)
		}
		ts.Close()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		sealed, err := epochlog.ListSealed(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sealed {
			digests = append(digests, fmt.Sprintf("%d:%s", m.Seq, m.TraceDigest))
		}
		out, diff, err := Reaudit(context.Background(), auditd.ShardedConfig{Root: dir})
		if err != nil || diff != "" || !out.Accepted() {
			t.Fatalf("mode %q: re-audit err %v, diff %q, verdicts %s", mode, err, diff, VerdictKey(out))
		}
		return digests, out
	}

	groupDigests, group := runMode(collectorhttp.CommitGroup)
	perReqDigests, perReq := runMode(collectorhttp.CommitPerRequest)
	if fmt.Sprint(groupDigests) != fmt.Sprint(perReqDigests) {
		t.Fatalf("epoch digests differ:\n  group       %v\n  per-request %v", groupDigests, perReqDigests)
	}
	if VerdictKey(group) != VerdictKey(perReq) || len(group.Shards[0].Verdicts) != len(groupDigests) {
		t.Fatalf("verdicts differ: group %s, per-request %s", VerdictKey(group), VerdictKey(perReq))
	}
	if group.Stats != perReq.Stats {
		t.Fatalf("audit stats differ: group %+v, per-request %+v", group.Stats, perReq.Stats)
	}
}

// TestInvariantsNameBreaches: the two exported invariants — shared with
// `karousos fleet accept` — report each kind of breach, one line apiece.
func TestInvariantsNameBreaches(t *testing.T) {
	dir := t.TempDir()
	sc := Scenario{Topology: Topology{App: "wiki", Shards: 2, EpochRequests: 5}, Load: Load{Seed: 3, Requests: 20}}
	res, err := Run(dir, sc)
	if err != nil || len(res.Violations) != 0 {
		t.Fatalf("honest run: %v, %v", err, res)
	}
	root := dir + "/shards"
	sealed, breaches, err := AckedSealed(root, map[string][]string{"0": {"r00000001", "r-never-served"}, "7": {"x"}, "": {"y", "z"}})
	if err != nil || sealed != res.Sealed || len(breaches) != 3 {
		t.Fatalf("sealed %d (run saw %d), err %v, breaches %q", sealed, res.Sealed, err, breaches)
	}
	for _, want := range []string{`name shard "7"`, `2 acked requests name shard ""`, "shard 0: acked rid r-never-served missing"} {
		if !strings.Contains(strings.Join(breaches, "\n"), want) {
			t.Errorf("no breach mentions %q: %q", want, breaches)
		}
	}
	if _, _, err := AckedSealed(t.TempDir(), nil); err == nil {
		t.Error("a root without a shard map checked clean")
	}

	audit := auditd.ShardedResult{Shards: []auditd.ShardReport{
		{Shard: 0, Verdicts: []auditd.Verdict{{Epoch: 1}, {Epoch: 2, Code: "OutputMismatch"}}},
		{Shard: 1, Verdicts: []auditd.Verdict{{Epoch: 1, Code: "Unauditable"}}},
		{Shard: 2, Verdicts: []auditd.Verdict{{Epoch: 1}}},
	}}
	audit.Merge.Code = "Unauditable"
	tally, breaches := GradeHonest(audit, []int{2})
	if tally != (Tally{Accepted: 2, Rejected: 1, Unauditable: 1}) || len(breaches) != 3 {
		t.Fatalf("tally %+v, breaches %q", tally, breaches)
	}
	// Unauditable where it is owed, and only there, is the price of the
	// fault; with nothing owed even the merged Unauditable is a breach.
	if _, breaches = GradeHonest(audit, []int{1, 2}); len(breaches) != 2 {
		t.Errorf("owed on 1 and 2: %q", breaches)
	}
	audit.Shards = audit.Shards[2:]
	if _, breaches = GradeHonest(audit, nil); len(breaches) != 1 || !strings.Contains(breaches[0], "combined verdict [Unauditable]") {
		t.Errorf("nothing owed: %q", breaches)
	}
}
