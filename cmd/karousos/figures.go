package main

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"karousos.dev/karousos/internal/experiments"
)

// benchmarkWorkload names the BENCHMARK.json workload that reports what a
// former operational figure measured: those numbers come from the real
// stack through `bash benchmark/run.sh`, not from a figure panel.
var benchmarkWorkload = map[int]string{
	13: "motd-write-burst (serve_rps, epochlog.fsyncs_per_req)",
	14: "wiki-live (shard.lanes_speedup)",
	15: "feeds-steady (audit_rps, memo.on_off_ratio)",
}

// figuresCmd regenerates the tables behind the paper's evaluation (Figures
// 6–12). Without flags it reproduces the paper's setup: 600-request
// workloads (server-overhead panels warm up on the first 120), concurrency
// swept over 1–60, medians of 3 trials.
func figuresCmd(args []string, stdout, stderr io.Writer) int {
	def := experiments.DefaultConfig()
	fs := newFlags("figures", stderr)
	fig := fs.String("fig", "all", "figure to regenerate: 6..12 or all")
	requests := fs.Int("requests", def.Requests, "requests per workload")
	warmup := fs.Int("warmup", def.Warmup, "warm-up requests for server-overhead panels")
	trials := fs.Int("trials", def.Trials, "trials per data point (median reported)")
	conc := fs.String("conc", "1,15,30,45,60", "comma-separated concurrency levels")
	seed := fs.Int64("seed", def.Seed, "base seed for workloads and schedulers")
	workers := fs.String("workers", "", "comma-separated audit worker levels for the Figure-7 worker sweep (default: 1,2,4,GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	cfg := experiments.Config{Requests: *requests, Warmup: *warmup, Trials: *trials, Seed: *seed}
	var err error
	if cfg.Conc, err = parseLevels("concurrency", *conc); err != nil {
		return fail(stderr, err)
	}
	if *workers != "" {
		if cfg.Workers, err = parseLevels("worker", *workers); err != nil {
			return fail(stderr, err)
		}
	}
	if cfg.Warmup >= cfg.Requests {
		return fail(stderr, fmt.Errorf("-warmup %d must be smaller than -requests %d", cfg.Warmup, cfg.Requests))
	}
	if cfg.Trials < 1 {
		return fail(stderr, fmt.Errorf("-trials %d: need at least one trial", cfg.Trials))
	}

	figs := experiments.Figures()
	if *fig != "all" {
		n, err := strconv.Atoi(*fig)
		if err != nil {
			return fail(stderr, fmt.Errorf("bad figure %q (6..12 or all)", *fig))
		}
		if w, ok := benchmarkWorkload[n]; ok {
			return fail(stderr, fmt.Errorf("figure %d is not in the paper; run `bash benchmark/run.sh`, workload %s", n, w))
		}
		if !slices.Contains(figs, n) {
			return fail(stderr, fmt.Errorf("no figure %d (6..12 or all)", n))
		}
		figs = []int{n}
	}

	for _, n := range figs {
		fmt.Fprintf(stdout, "==== Figure %d ====\n", n)
		for _, panel := range experiments.Figure(n, cfg) {
			printPanel(stdout, panel)
		}
	}
	return 0
}

// parseLevels parses a comma-separated list of positive sweep levels.
func parseLevels(what, csv string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s level %q", what, part)
		}
		levels = append(levels, v)
	}
	return levels, nil
}

func printPanel(w io.Writer, p experiments.Panel) {
	fmt.Fprintf(w, "\n-- %s --\n", p.Title)
	widths := make([]int, len(p.Header))
	for i, h := range p.Header {
		widths[i] = len(h)
	}
	for _, row := range p.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(p.Header)
	for _, row := range p.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}
