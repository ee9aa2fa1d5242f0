// Package experiments regenerates the paper's evaluation (§6, Figures 6–12):
// each figure maps to panels of rows — one row per concurrency level — that
// report medians over several trials, exactly the quantities the paper
// plots. `karousos figures` prints these panels. Operational numbers —
// record throughput, shard scaling, the memo cache — are the repo
// benchmark's (benchmark/, BENCHMARK.json), not figures.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

// Config holds the sweep parameters. The paper's defaults are 600 requests,
// 120 of which warm the server-overhead experiments, swept over 1–60
// concurrent requests.
type Config struct {
	Requests int
	Warmup   int
	Trials   int
	Conc     []int
	Seed     int64
	// Workers are the audit parallelism levels the worker-sweep panel
	// measures; empty means {1, 2, 4, GOMAXPROCS} deduplicated.
	Workers []int
}

// DefaultConfig matches the paper's §6 setup.
func DefaultConfig() Config {
	return Config{Requests: 600, Warmup: 120, Trials: 3, Conc: []int{1, 15, 30, 45, 60}, Seed: 42}
}

// workerLevels resolves cfg.Workers, defaulting to a 1/2/4/GOMAXPROCS sweep
// with duplicates collapsed (on a 4-core machine: 1, 2, 4).
func (cfg Config) workerLevels() []int {
	if len(cfg.Workers) > 0 {
		return cfg.Workers
	}
	levels := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	sort.Ints(levels)
	out := levels[:1]
	for _, w := range levels[1:] {
		if w != out[len(out)-1] {
			out = append(out, w)
		}
	}
	return out
}

// Panel is one plot of a figure, rendered as a table.
type Panel struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AppWorkload resolves the named application and its paper workload.
func AppWorkload(app string, mix workload.Mix, n int, seed int64) (harness.AppSpec, []server.Request) {
	spec, err := harness.SpecByName(app)
	must(err)
	reqs, err := workload.For(app, mix, n, seed)
	must(err)
	return spec, reqs
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func fdur(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }

// ServerOverheadPanel reproduces a Figure 6-style panel: processing time of
// the measured requests for the unmodified server and the Karousos server,
// and the overhead factor (§6.1).
func ServerOverheadPanel(app string, mix workload.Mix, cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("server processing time — %s (%s), %d requests after %d warm-up", app, mix, cfg.Requests-cfg.Warmup, cfg.Warmup),
		Header: []string{"conc", "unmodified", "karousos", "overhead"},
	}
	for _, conc := range cfg.Conc {
		var unmod, kar []time.Duration
		for tr := 0; tr < cfg.Trials; tr++ {
			seed := cfg.Seed + int64(tr)
			spec, reqs := AppWorkload(app, mix, cfg.Requests, cfg.Seed)
			du, err := harness.ServeWarm(spec, reqs, cfg.Warmup, conc, seed, harness.CollectNone)
			must(err)
			spec, reqs = AppWorkload(app, mix, cfg.Requests, cfg.Seed)
			dk, err := harness.ServeWarm(spec, reqs, cfg.Warmup, conc, seed, harness.CollectKarousos)
			must(err)
			unmod = append(unmod, du)
			kar = append(kar, dk)
		}
		mu, mk := median(unmod), median(kar)
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc), fdur(mu), fdur(mk), fmt.Sprintf("%.2fx", float64(mk)/float64(mu)),
		})
	}
	return p
}

// VerificationPanel reproduces a Figure 7-style panel: total verification
// time for the Karousos verifier, the Orochi-JS verifier, and the sequential
// re-executor (§6.2).
func VerificationPanel(app string, mix workload.Mix, cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("verification time — %s (%s), %d requests", app, mix, cfg.Requests),
		Header: []string{"conc", "karousos", "orochi-js", "sequential", "kar-groups", "oro-groups"},
	}
	for _, conc := range cfg.Conc {
		var kar, oro, seq []time.Duration
		var kg, og int
		for tr := 0; tr < cfg.Trials; tr++ {
			seed := cfg.Seed + int64(tr)
			spec, reqs := AppWorkload(app, mix, cfg.Requests, cfg.Seed)
			run, err := harness.Serve(spec, reqs, conc, seed, harness.CollectBoth)
			must(err)
			vk := harness.VerifyKarousos(spec, run.Trace, run.Karousos)
			vo := harness.VerifyOrochi(spec, run.Trace, run.Orochi)
			sq := harness.VerifySequential(spec, run.Trace)
			must(vk.Err)
			must(vo.Err)
			must(sq.Err)
			kar = append(kar, vk.Elapsed)
			oro = append(oro, vo.Elapsed)
			seq = append(seq, sq.Elapsed)
			kg, og = vk.Stats.Groups, vo.Stats.Groups
		}
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc), fdur(median(kar)), fdur(median(oro)), fdur(median(seq)),
			fmt.Sprint(kg), fmt.Sprint(og),
		})
	}
	return p
}

// WorkerSweepPanel measures the Karousos verifier's multi-core scaling: the
// same (trace, advice) audited at each worker level, with the speedup over
// the sequential engine. The verdict and Stats are identical at every level
// (DESIGN.md §13); the sweep asserts that by comparing Stats across levels.
func WorkerSweepPanel(app string, mix workload.Mix, cfg Config) Panel {
	conc := 30
	if len(cfg.Conc) > 0 {
		conc = cfg.Conc[len(cfg.Conc)-1]
	}
	p := Panel{
		Title:  fmt.Sprintf("karousos audit worker sweep — %s (%s), %d requests, conc %d", app, mix, cfg.Requests, conc),
		Header: []string{"workers", "karousos", "speedup", "groups"},
	}
	spec, reqs := AppWorkload(app, mix, cfg.Requests, cfg.Seed)
	run, err := harness.Serve(spec, reqs, conc, cfg.Seed, harness.CollectKarousos)
	must(err)
	var base time.Duration
	var baseStats *harness.VerifyResult
	for _, w := range cfg.workerLevels() {
		var ds []time.Duration
		var vr *harness.VerifyResult
		for tr := 0; tr < cfg.Trials; tr++ {
			vr = harness.VerifyWith(spec, run.Trace, run.Karousos, harness.VerifyOptions{Workers: w})
			must(vr.Err)
			ds = append(ds, vr.Elapsed)
		}
		m := median(ds)
		if base == 0 {
			base = m
			baseStats = vr
		}
		if vr.Stats != baseStats.Stats {
			panic(fmt.Sprintf("experiments: worker sweep diverged at %d workers: %+v vs %+v", w, vr.Stats, baseStats.Stats))
		}
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(w), fdur(m), fmt.Sprintf("%.2fx", float64(base)/float64(m)), fmt.Sprint(vr.Stats.Groups),
		})
	}
	return p
}

// AdviceSizePanel reproduces a Figure 8-style panel: the size of the advice
// the server ships to the verifier, Karousos vs Orochi-JS (§6.3).
func AdviceSizePanel(app string, mix workload.Mix, cfg Config) Panel {
	p := Panel{
		Title:  fmt.Sprintf("advice size — %s (%s), %d requests", app, mix, cfg.Requests),
		Header: []string{"conc", "karousos", "orochi-js", "ratio"},
	}
	for _, conc := range cfg.Conc {
		spec, reqs := AppWorkload(app, mix, cfg.Requests, cfg.Seed)
		run, err := harness.Serve(spec, reqs, conc, cfg.Seed, harness.CollectBoth)
		must(err)
		k, o := run.Karousos.Size(), run.Orochi.Size()
		p.Rows = append(p.Rows, []string{
			fmt.Sprint(conc),
			fmt.Sprintf("%.1f KiB", float64(k)/1024),
			fmt.Sprintf("%.1f KiB", float64(o)/1024),
			fmt.Sprintf("%.2f", float64(k)/float64(o)),
		})
	}
	return p
}

// Figure returns the panels of one numbered figure of the paper.
//
//	Fig 6:  server overheads — MOTD 90% writes, stacks 90% reads, wiki
//	Fig 7:  verification time — same three workloads
//	Fig 8:  advice size — MOTD 90% writes, wiki (stacks omitted, §6.3)
//	Fig 9:  MOTD mixed (server / verification / advice)
//	Fig 10: MOTD 90% reads
//	Fig 11: stacks mixed
//	Fig 12: stacks 90% writes
func Figure(n int, cfg Config) []Panel {
	switch n {
	case 6:
		return []Panel{
			ServerOverheadPanel("motd", workload.WriteHeavy, cfg),
			ServerOverheadPanel("stacks", workload.ReadHeavy, cfg),
			ServerOverheadPanel("wiki", workload.Mixed, cfg),
		}
	case 7:
		return []Panel{
			VerificationPanel("motd", workload.WriteHeavy, cfg),
			VerificationPanel("stacks", workload.ReadHeavy, cfg),
			VerificationPanel("wiki", workload.Mixed, cfg),
			WorkerSweepPanel("wiki", workload.Mixed, cfg),
		}
	case 8:
		return []Panel{
			AdviceSizePanel("motd", workload.WriteHeavy, cfg),
			AdviceSizePanel("wiki", workload.Mixed, cfg),
		}
	case 9:
		return appFigure("motd", workload.Mixed, cfg)
	case 10:
		return appFigure("motd", workload.ReadHeavy, cfg)
	case 11:
		return appFigure("stacks", workload.Mixed, cfg)
	case 12:
		return appFigure("stacks", workload.WriteHeavy, cfg)
	}
	panic(fmt.Sprintf("experiments: no figure %d", n))
}

// appFigure is the Appendix B layout: one application and mix across the
// three panel kinds (a: server overhead, b: verification, c: advice size).
func appFigure(app string, mix workload.Mix, cfg Config) []Panel {
	return []Panel{
		ServerOverheadPanel(app, mix, cfg),
		VerificationPanel(app, mix, cfg),
		AdviceSizePanel(app, mix, cfg),
	}
}

// Figures lists the figure numbers this package can regenerate.
func Figures() []int { return []int{6, 7, 8, 9, 10, 11, 12} }

func must(err error) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
}
