// Command benchmark is the repository's performance contract: it stands the
// real stack up in-process (gateway → collector → epoch log → auditor),
// drives four named workloads through it, checks that what was served is what
// was sealed and what was sealed is what the audit accepts, and prints every
// metric declared in BENCHMARK.json by name with its unit.
//
//	bash benchmark/run.sh -seed 42              # all workloads, end-to-end metrics
//	bash benchmark/run.sh -seed 42 -trace 1     # … plus the per-layer table and span files
//	bash benchmark/run.sh -seed 42 -repeat 5    # … five times over, with medians and spreads
//	bash benchmark/run.sh --workload wiki-live --seed 7 --seconds 10 --trace 0
//
// The last form is what the PR driver runs: one workload, one JSON object on
// the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// metricDef is one declared metric; BENCHMARK.json lists the same names and
// units, and bench_test.go holds the two lists equal.
type metricDef struct {
	Name, Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"serve_rps", "1/s"},
	{"ack_p50_ms", "ms"},
	{"audit_rps", "1/s"},
	{"advice_bytes_per_req", "bytes/req"},
}

var perLayer = []metricDef{
	{"driver.late_p99_ms", "ms"},
	{"driver.samples", "count"},
	{"driver.ack_p99_ms", "ms"},
	{"driver.fail_share", "share"},
	{"gateway.self_ms_p50", "ms"},
	{"gateway.retries", "count"},
	{"collectorhttp.invoke_ms_p50", "ms"},
	{"collectorhttp.shed", "count"},
	{"server.exec_us_per_req", "us/req"},
	{"server.advice_overhead_ratio", "ratio"},
	{"epochlog.fsyncs_per_req", "1/req"},
	{"epochlog.fsync_ms_p50", "ms"},
	{"epochlog.bytes_per_req", "bytes/req"},
	{"epochlog.seal_ms_p50", "ms"},
	{"epochlog.read_ms_per_epoch", "ms/epoch"},
	{"advice.decode_ms_per_epoch", "ms/epoch"},
	{"advice.decode_allocs_per_req", "1/req"},
	{"advice.encode_ms_per_epoch", "ms/epoch"},
	{"verifier.audit_ms_per_epoch", "ms/epoch"},
	{"verifier.allocs_per_req", "1/req"},
	{"verifier.handlers_rerun_per_req", "1/req"},
	{"verifier.graph_edges_per_req", "1/req"},
	{"memo.hit_ratio", "ratio"},
	{"memo.on_off_ratio", "ratio"},
	{"auditd.self_ms_per_epoch", "ms/epoch"},
	{"auditd.verdict_lag_p50_ms", "ms"},
	{"shard.lanes_speedup", "ratio"},
	{"shard.merge_ms", "ms"},
	{"trace_overhead_share", "share"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, in the shape the PR driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	problems  []string
	notes     []string
}

type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	WorkDir string
	OutDir  string
	Nproc   int
	// SetupRepeats is how many times an untraced run sets the stack up;
	// setup_s is the median.
	SetupRepeats int
}

// runWorkload measures one workload: with tracing off, every end-to-end
// metric; with tracing on, an untraced reference pass and a traced pass at
// half length each, and every per-layer metric.
func runWorkload(def workloadDef, cfg config) (result, error) {
	work, err := os.MkdirTemp(cfg.WorkDir, def.Name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	opts := passOpts{Seed: cfg.Seed, Seconds: cfg.Seconds, Nproc: cfg.Nproc, SetupRepeats: cfg.SetupRepeats}
	if !cfg.Trace {
		opts.WorkDir = work
		p, err := runPass(def, opts)
		if err != nil {
			return failedResult(p, err), nil
		}
		res := newResult(endToEnd, map[string]float64{
			"setup_s":              p.SetupS,
			"serve_rps":            p.serveRPS(),
			"ack_p50_ms":           q(p.Acked, 0.5),
			"audit_rps":            p.auditRPS(),
			"advice_bytes_per_req": p.adviceBytesPerReq(),
		}, p)
		res.notes = append(res.notes,
			fmt.Sprintf("ack samples %d, ack_p99_ms %.3f, driver late_p99_ms %.3f", len(p.Acked), q(p.Acked, 0.99), q(p.Late, 0.99)),
			fmt.Sprintf("drains %d over %d epochs / %d requests", len(p.Drains), p.Log.Epochs, p.Log.Requests))
		if def.Live {
			res.notes = append(res.notes, fmt.Sprintf("verdict_lag_p50_ms %.3f over %d epochs", q(p.Lags, 0.5), len(p.Lags)))
		}
		return res, nil
	}

	// A process's first pass runs cold (heap growth, page faults, first
	// connections); a short discarded one keeps that out of the comparison.
	opts.Seconds, opts.SetupRepeats, opts.WorkDir = min(1, cfg.Seconds/2), 1, filepath.Join(work, "warm")
	if p, err := runPass(def, opts); err != nil {
		return failedResult(p, err), nil
	}
	opts.Seconds, opts.WorkDir = cfg.Seconds/2, filepath.Join(work, "untraced")
	ref, err := runPass(def, opts)
	if err != nil {
		return failedResult(ref, err), nil
	}
	opts.WorkDir, opts.Rec = filepath.Join(work, "traced"), newRecorder()
	traced, err := runPass(def, opts)
	if err != nil {
		return failedResult(traced, err), nil
	}
	layers, err := layerMetrics(traced, ref)
	if err != nil {
		return failedResult(traced, err), nil
	}
	res := newResult(perLayer, layers, ref, traced)
	path := filepath.Join(cfg.OutDir, "trace-"+def.Name+".json")
	if err := opts.Rec.writeFile(path); err != nil {
		return result{}, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(opts.Rec.snapshot()), path))
	return res, nil
}

func newResult(defs []metricDef, values map[string]float64, passes ...*pass) result {
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			res.problems = append(res.problems, "metric not measured: "+d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range passes {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		res.problems = append(res.problems, p.Problems...)
	}
	res.Correct = len(res.problems) == 0 && res.Failed == 0
	return res
}

func failedResult(p *pass, err error) result {
	res := result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}, problems: []string{err.Error()}}
	if p != nil && p.Attempted > 0 {
		res.Attempted, res.Failed = p.Attempted, p.Failed
		res.problems = append(res.problems, p.Problems...)
	}
	return res
}

// env stamps a result with where it was measured.
type env struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Host       string `json:"host"`
}

func stamp() env {
	e := env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown",
	}
	e.Host, _ = os.Hostname()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				e.Commit += "+dirty"
			}
		}
	}
	return e
}

func main() {
	var cfg config
	var workload string
	var seconds, trace, repeat int
	flag.StringVar(&workload, "workload", "", "run this one workload and print one JSON result as the last line (default: all, as a table)")
	flag.Int64Var(&cfg.Seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "run length the phases are sized for")
	flag.IntVar(&trace, "trace", 0, "1 records spans at the layer boundaries and reports the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 1, "run the suite this many times and report medians, quartiles and spreads")
	flag.StringVar(&cfg.WorkDir, "work", ".bench_build/work", "scratch directory for epoch logs (created, emptied on exit)")
	flag.StringVar(&cfg.OutDir, "out", "benchmark/out", "where traced runs write trace-<workload>.json")
	contract := flag.String("contract", "BENCHMARK.json", "the declared workloads, metrics and bounds")
	flag.Parse()
	cfg.Trace, cfg.Seconds = trace != 0, float64(seconds)
	cfg.SetupRepeats = 5
	cfg.Nproc = runtime.GOMAXPROCS(0)
	if seconds < 1 || repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be at least 1, and there are no positional arguments")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fatal(err)
	}
	defs := workloads(cfg.Nproc)

	if workload != "" {
		def, err := workloadByName(defs, workload)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(def, cfg)
		if err != nil {
			fatal(err)
		}
		report(os.Stderr, def.Name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	bounds, err := readBounds(*contract)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: no bounds (%v); spreads are reported unjudged\n", err)
	}
	ok := suite(os.Stdout, defs, cfg, repeat, bounds)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// report prints one workload's metrics, one per line, by name with unit.
func report(w io.Writer, workload string, res result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", workload, name, m.Value, m.Unit)
	}
	tw.Flush()
	for _, n := range res.notes {
		fmt.Fprintf(w, "%s: %s\n", workload, n)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	const show = 10
	for i, p := range res.problems {
		if i == show {
			fmt.Fprintf(w, "%s: … and %d more problems\n", workload, len(res.problems)-show)
			break
		}
		fmt.Fprintf(w, "%s: PROBLEM: %s\n", workload, p)
	}
}

// suite runs every workload repeat times — untraced, and traced too when
// asked — prints each result, then per (workload, metric) the median,
// quartiles and relative spread across the repeats, and everything once
// more as JSON. It reports whether every run was correct.
func suite(w io.Writer, defs []workloadDef, cfg config, repeat int, bounds map[string]float64) bool {
	e := stamp()
	fmt.Fprintf(w, "karousos benchmark: seed %d, %g s per run, %s %s/%s, nproc %d, GOMAXPROCS %d, commit %s, host %s\n",
		cfg.Seed, cfg.Seconds, e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.Commit, e.Host)
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	units := make(map[string]string)
	var order []key
	var runs []map[string]result
	ok := true
	for r := 0; r < repeat; r++ {
		run := make(map[string]result)
		for _, def := range defs {
			for _, traced := range []bool{false, true} {
				if traced && !cfg.Trace {
					continue
				}
				c := cfg
				c.Trace = traced
				res, err := runWorkload(def, c)
				if err != nil {
					fatal(err)
				}
				report(w, def.Name, res)
				ok = ok && res.Correct
				name := def.Name
				if traced {
					name += "/traced"
				}
				run[name] = res
				for metric, v := range res.Metrics {
					k := key{def.Name, metric}
					if _, seen := values[k]; !seen {
						order = append(order, k)
					}
					values[k] = append(values[k], v.Value)
					units[metric] = v.Unit
				}
			}
		}
		runs = append(runs, run)
	}
	if repeat > 1 {
		sort.Slice(order, func(i, j int) bool {
			if order[i].workload != order[j].workload {
				return order[i].workload < order[j].workload
			}
			return order[i].metric < order[j].metric
		})
		fmt.Fprintf(w, "\nacross %d runs:\n", repeat)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tmetric\tunit\tq1\tmedian\tq3\tspread\tbound\t")
		for _, k := range order {
			q1, q2, q3 := quartiles(values[k])
			sp := spread(values[k])
			note := ""
			if b, gated := bounds[k.metric]; gated {
				note = fmt.Sprintf("%.2f", b)
				if k.metric != "setup_s" && sp > b/3 {
					note += " UNSTEADY (spread above a third of the bound)"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%s\t\n", k.workload, k.metric, units[k.metric], q1, q2, q3, sp, note)
		}
		tw.Flush()
	}
	doc, err := json.MarshalIndent(map[string]any{"env": e, "seed": cfg.Seed, "seconds": cfg.Seconds, "runs": runs}, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "\n%s\n", doc)
	return ok
}

// readBounds loads the regression bound of every gated metric.
func readBounds(path string) (map[string]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return bounds, nil
}
