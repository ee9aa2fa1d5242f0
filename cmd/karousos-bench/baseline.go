// Baseline mode: karousos-bench can emit a committed performance baseline
// (BENCH_baseline.json) and later check the working tree against it, so CI
// catches ns/op regressions without running the full figure sweeps.
//
//	karousos-bench -baseline-out BENCH_baseline.json     # regenerate
//	karousos-bench -baseline-check BENCH_baseline.json   # gate (CI)
//
// The baseline deliberately records only scale-free quantities (ns/op,
// allocs/op) plus the config that produced them; no timestamps or host
// names, so regenerating on the same machine is a stable diff.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/experiments"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// baselineRequests is smaller than the figure sweeps' default so the CI
// bench-smoke job stays cheap; the shapes (and therefore regressions in
// them) are preserved.
const baselineRequests = 120

type baselineResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type baselineFile struct {
	Config struct {
		Requests   int `json:"requests"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"config"`
	Results map[string]baselineResult `json:"results"`
}

type baselineBench struct {
	name string
	fn   func(b *testing.B)
}

// baselineServe mirrors the Figure-6 panels: serving cost with Karousos
// advice collection on.
func baselineServe(app string, mix workload.Mix) func(*testing.B) {
	return func(b *testing.B) {
		warmup := baselineRequests / 5
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec, reqs := experiments.AppWorkload(app, mix, baselineRequests, 1)
			if _, err := harness.ServeWarm(spec, reqs, warmup, 30, int64(i), harness.CollectKarousos); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// baselineVerify mirrors the Figure-7 panels: audit turnaround at the given
// worker count (0 = GOMAXPROCS, the production default; 1 = the sequential
// reference the parallel engine must not regress).
func baselineVerify(app string, mix workload.Mix, auditWorkers int) func(*testing.B) {
	return func(b *testing.B) {
		spec, reqs := experiments.AppWorkload(app, mix, baselineRequests, 1)
		run, err := harness.Serve(spec, reqs, 30, 42, harness.CollectKarousos)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := harness.VerifyWith(spec, run.Trace, run.Karousos, harness.VerifyOptions{Workers: auditWorkers})
			if v.Err != nil {
				b.Fatal(v.Err)
			}
		}
	}
}

func baselineBenches() []baselineBench {
	return []baselineBench{
		{"fig6a-motd-write-heavy-server-karousos", baselineServe("motd", workload.WriteHeavy)},
		{"fig6b-stacks-read-heavy-server-karousos", baselineServe("stacks", workload.ReadHeavy)},
		{"fig6c-wiki-server-karousos", baselineServe("wiki", workload.Mixed)},
		{"fig7a-motd-write-heavy-verify-karousos", baselineVerify("motd", workload.WriteHeavy, 0)},
		{"fig7b-stacks-read-heavy-verify-karousos", baselineVerify("stacks", workload.ReadHeavy, 0)},
		{"fig7c-wiki-verify-karousos", baselineVerify("wiki", workload.Mixed, 0)},
		{"fig7c-wiki-verify-karousos-workers-1", baselineVerify("wiki", workload.Mixed, 1)},
		{"audit-components/advice-decode", func(b *testing.B) {
			spec, reqs := experiments.AppWorkload("wiki", workload.Mixed, baselineRequests, 1)
			run, err := harness.Serve(spec, reqs, 30, 42, harness.CollectKarousos)
			if err != nil {
				b.Fatal(err)
			}
			wire := run.Karousos.MarshalBinary()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := advice.UnmarshalBinary(wire); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"audit-components/advice-encode", func(b *testing.B) {
			spec, reqs := experiments.AppWorkload("wiki", workload.Mixed, baselineRequests, 1)
			run, err := harness.Serve(spec, reqs, 30, 42, harness.CollectKarousos)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = run.Karousos.MarshalBinary()
			}
		}},
		{"audit-components/full-audit", baselineVerify("wiki", workload.Mixed, 0)},
		{"record/per-request-fsync-c32", baselineRecord(false, 32)},
		{"record/group-commit-c32", baselineRecord(true, 32)},
		{"shard-audit/shards-1", baselineShardAudit(1)},
		{"shard-audit/shards-4", baselineShardAudit(4)},
		{"shard-audit/shards-8", baselineShardAudit(8)},
		{"memo-audit/cold", baselineMemoAudit(0)},
		{"memo-audit/warm", baselineMemoAudit(256 << 20)},
	}
}

// baselineMemoAudit mirrors the Figure-15 panel: full audit turnaround over
// a pure-recurring feeds steady-state log, cold (memoBytes 0, the cache
// disabled) or warm (the cache carried across epochs within each op's
// single auditor pass). The log is built once outside the timer; every op
// grades it from scratch with a fresh auditor, so cold vs warm isolates
// exactly what cross-epoch deduplicated re-execution saves.
func baselineMemoAudit(memoBytes int) func(*testing.B) {
	return func(b *testing.B) {
		const epochs = 8
		dir, err := os.MkdirTemp("", "karousos-memo-bench-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if err := experiments.BuildMemoLog(dir, epochs, baselineRequests/epochs, 1.0, 1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := auditd.New(auditd.Config{Dir: dir, AuditWorkers: 1, MemoMaxBytes: memoBytes})
			if err != nil {
				b.Fatal(err)
			}
			n, err := a.RunOnce(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if st := a.Status(); n != epochs || st.Accepted != epochs {
				b.Fatalf("graded %d/%d epochs, accepted %d", n, epochs, st.Accepted)
			}
		}
	}
}

// baselineShardAudit mirrors the Figure-14 panel: full shard-parallel
// audit turnaround (one lane per shard, per-epoch workers pinned to 1)
// over a sealed wiki topology built once outside the timer. No
// checkpoints, so every op grades the whole topology from scratch.
func baselineShardAudit(shards int) func(*testing.B) {
	return func(b *testing.B) {
		root, err := os.MkdirTemp("", "karousos-shard-bench-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(root)
		if err := experiments.BuildShardTopology(root, shards, baselineRequests, 1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh, err := auditd.NewSharded(auditd.ShardedConfig{
				Root:         root,
				Limits:       verifier.DefaultLimits(),
				AuditWorkers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := sh.Audit(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if !res.Accepted() {
				b.Fatalf("honest topology rejected: [%s] %s", res.Merge.Code, res.Merge.Reason)
			}
		}
	}
}

// baselineRecord mirrors the Figure-13 panel: durable-append throughput of
// the epoch log at one commit discipline and concurrency level. One op is
// a fixed batch of events, so ns/op regressions gate the record path the
// same way the serve/verify entries gate theirs.
func baselineRecord(group bool, conc int) func(*testing.B) {
	return func(b *testing.B) {
		const events = 2048
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RecordThroughput(group, conc, events); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func measureBaseline(bb baselineBench) (baselineResult, error) {
	r := testing.Benchmark(bb.fn)
	if r.N == 0 {
		return baselineResult{}, fmt.Errorf("benchmark %s failed", bb.name)
	}
	return baselineResult{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	}, nil
}

func writeBaseline(path string) error {
	var f baselineFile
	f.Config.Requests = baselineRequests
	f.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	f.Results = make(map[string]baselineResult)
	for _, bb := range baselineBenches() {
		res, err := measureBaseline(bb)
		if err != nil {
			return err
		}
		f.Results[bb.name] = res
		fmt.Printf("%-45s %14.0f ns/op %10d allocs/op\n", bb.name, res.NsPerOp, res.AllocsPerOp)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// updateBaseline measures only the benchmarks a committed baseline is
// missing and merges them in, leaving every existing entry byte-identical.
// This is how a PR that adds benchmarks lands their baseline numbers
// without re-measuring (and so silently re-centering) everyone else's.
func updateBaseline(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if f.Results == nil {
		f.Results = make(map[string]baselineResult)
	}
	added := 0
	for _, bb := range baselineBenches() {
		if _, ok := f.Results[bb.name]; ok {
			continue
		}
		res, err := measureBaseline(bb)
		if err != nil {
			return err
		}
		f.Results[bb.name] = res
		added++
		fmt.Printf("%-45s %14.0f ns/op %10d allocs/op (new)\n", bb.name, res.NsPerOp, res.AllocsPerOp)
	}
	if added == 0 {
		fmt.Println("baseline already covers every benchmark; nothing to do")
		return nil
	}
	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// checkBaseline compares the working tree against a committed baseline and
// returns an error on any ns/op regression beyond the tolerance. Benchmarks
// are noisy, especially on shared CI runners, so a candidate that trips the
// gate is re-measured (up to three attempts total) and judged on its best
// run; allocs/op drift is reported but does not fail the gate — the
// Workers=1 parity tests own the hard allocation bound.
func checkBaseline(path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.Config.Requests != baselineRequests {
		return fmt.Errorf("baseline was recorded at %d requests; this binary measures %d — regenerate with -baseline-out",
			base.Config.Requests, baselineRequests)
	}
	if base.Config.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		fmt.Printf("note: baseline recorded at GOMAXPROCS=%d, running at %d; parallel-audit points may differ\n",
			base.Config.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}

	names := make([]string, 0, len(base.Results))
	for name := range base.Results {
		names = append(names, name)
	}
	sort.Strings(names)

	benches := make(map[string]baselineBench)
	for _, bb := range baselineBenches() {
		benches[bb.name] = bb
	}

	var failures []string
	for _, name := range names {
		bb, ok := benches[name]
		if !ok {
			fmt.Printf("note: baseline entry %q has no benchmark in this binary; skipping\n", name)
			continue
		}
		want := base.Results[name]
		limit := want.NsPerOp * (1 + tolerance)
		var best baselineResult
		pass := false
		for attempt := 1; attempt <= 3; attempt++ {
			got, err := measureBaseline(bb)
			if err != nil {
				return err
			}
			if attempt == 1 || got.NsPerOp < best.NsPerOp {
				best = got
			}
			if best.NsPerOp <= limit {
				pass = true
				break
			}
		}
		status := "ok"
		if !pass {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (limit %.0f)", name, best.NsPerOp, want.NsPerOp, limit))
		}
		fmt.Printf("%-45s %14.0f ns/op (baseline %14.0f, %+6.1f%%) %s\n",
			name, best.NsPerOp, want.NsPerOp, 100*(best.NsPerOp-want.NsPerOp)/want.NsPerOp, status)
		if want.AllocsPerOp > 0 && best.AllocsPerOp > want.AllocsPerOp+want.AllocsPerOp/10 {
			fmt.Printf("note: %s allocs/op grew %d -> %d\n", name, want.AllocsPerOp, best.AllocsPerOp)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "regression: "+f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", len(failures), 100*tolerance)
	}
	return nil
}
