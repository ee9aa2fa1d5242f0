package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/signal"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/chaos"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/workload"
)

// loadCmd is the open-loop load generator for the serving path. With
// neither -url nor -target it boots a self-contained collector on loopback,
// so one command is a full load story: generate, shed, seal and (-audit)
// re-audit at verifier parallelism 1 and 4.
func loadCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("load", stderr)
	cf := registerCollectorFlags(fs) // self-contained mode; -app and -seed also pick the workload
	url := fs.String("url", "", "collector base URL; empty boots a self-contained collector on loopback")
	target := fs.String("target", "", "gateway base URL: drive a sharded topology and split the ledger per shard (X-Karousos-Shard)")
	dir := fs.String("dir", "", "epoch log directory for the self-contained collector (default: a fresh temp dir)")
	mix := fs.String("mix", "mixed", "read/write mix: read-heavy, write-heavy, mixed")
	n := fs.Int("n", 1000, "number of arrivals to offer")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = pure burst)")
	outstanding := fs.Int("outstanding", 64, "max concurrently outstanding requests; due arrivals past it shed locally")
	repeatMix := fs.Float64("repeat-mix", 0, "fraction [0,1] of arrivals rewritten to the app's fixed recurring read-only shapes — the steady-state workload behind the warm memo-cache claim")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	slowEvery := fs.Int("slow-every", 0, "trickle every Nth request body through a slow chunked reader (0 = never)")
	maxQueuedBytes := fs.Int64("max-queued-bytes", 0, "self-contained collector: queued-bytes ceiling (0 = default)")
	audit := fs.Bool("audit", false, "after the run, re-audit the sealed log at workers 1 and 4 and require identical clean verdicts (self-contained mode only)")
	asJSON := fs.Bool("json", false, "print the result as JSON instead of the text summary")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	mixVal, ok := map[string]workload.Mix{
		"read-heavy": workload.ReadHeavy, "write-heavy": workload.WriteHeavy, "mixed": workload.Mixed,
	}[*mix]
	if !ok {
		return fail(stderr, fmt.Errorf("unknown mix %q (read-heavy, write-heavy, mixed)", *mix))
	}
	if *target != "" && *url != "" {
		return fail(stderr, errors.New("-target and -url are exclusive: a run drives either the gateway or one collector"))
	}
	base := *url
	if *target != "" {
		base = *target
	}
	if base != "" && *audit {
		return fail(stderr, errors.New("-audit needs the self-contained collector (drop -url/-target); audit an external log or topology with `karousos audit -dir`"))
	}
	var col *collectorhttp.Collector
	logDir := *dir
	if base == "" {
		var cleanup func()
		var err error
		if logDir, cleanup, err = scratchDir(*dir, "karousos-load-"); err != nil {
			return fail(stderr, err)
		}
		defer cleanup()
		cfg, err := cf.config(logDir)
		if err != nil {
			return fail(stderr, err)
		}
		cfg.MaxQueuedBytes = *maxQueuedBytes
		if col, err = collectorhttp.New(cfg); err != nil {
			return fail(stderr, err)
		}
		defer col.Close() //karousos:errladder-ok idempotent; the -audit path checks the real Close below
		ts := httptest.NewServer(col.Handler())
		defer ts.Close()
		base = ts.URL
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:        base,
		App:            *cf.app,
		Mix:            mixVal,
		Requests:       *n,
		Rate:           *rate,
		MaxOutstanding: *outstanding,
		Seed:           *cf.seed,
		RepeatMix:      *repeatMix,
		Timeout:        *timeout,
		SlowEvery:      *slowEvery,
		TrackShards:    *target != "",
	})
	if err != nil {
		return fail(stderr, err)
	}
	if *asJSON {
		if err := printJSON(stdout, res); err != nil {
			return fail(stderr, err)
		}
	} else {
		fmt.Fprint(stdout, res.Summary())
	}

	code := 0
	if res.ServerErr != 0 || res.NetErr != 0 || res.OtherStatus != 0 {
		fmt.Fprintf(stderr, "LOAD INVARIANT VIOLATED: %d serverErr, %d netErr, %d other — overload must resolve to 200 or 429\n",
			res.ServerErr, res.NetErr, res.OtherStatus)
		code = 2
	}
	if *audit {
		// The collector must seal its tail before the log is re-audited.
		if err := col.Close(); err != nil {
			return fail(stderr, err)
		}
		out, diff, err := chaos.Reaudit(ctx, auditd.ShardedConfig{Root: logDir})
		if err != nil {
			return fail(stderr, err)
		}
		verdicts := out.Shards[0].Verdicts
		for _, v := range verdicts {
			if !v.Accepted() {
				fmt.Fprintf(stderr, "AUDIT REJECTED epoch %d [%s]: %s\n", v.Epoch, v.Code, v.Reason)
				code = 2
			}
		}
		if diff != "" {
			fmt.Fprintln(stderr, "AUDIT DIVERGED:", diff)
			code = 2
		}
		if code == 0 {
			fmt.Fprintf(stdout, "AUDIT ACCEPTED: %d epochs, %d requests re-executed, identical at workers 1 and 4\n",
				len(verdicts), out.Stats.Requests)
		}
	}
	if code == 0 {
		fmt.Fprintln(stdout, "LOAD OK")
	}
	return code
}
