// karousos-loadgen is the open-loop load generator for the collector's
// serving path (DESIGN.md §14):
//
//	karousos-loadgen -n 2000 -rate 500 -app motd
//	    boots a self-contained collector on loopback, offers 2000 arrivals
//	    at 500 req/s, and prints the latency/shed ledger;
//
//	karousos-loadgen -url http://host:8080 -n 2000 -rate 500
//	    drives an already-running collector instead;
//
//	karousos-loadgen -target http://gateway:8081 -n 2000 -json
//	    drives a sharded topology through its gateway: the ledger is
//	    split per shard (X-Karousos-Shard), and 503s carrying Retry-After
//	    count as partial-shard degradation rather than server errors;
//
//	karousos-loadgen -n 2000 -audit
//	    after the run, re-audits every sealed epoch at verifier
//	    parallelism 1 and 4 (chaos.Reaudit) and requires both passes to
//	    accept with identical work counters;
//
//	karousos-loadgen -n 2000 -repeat-mix 0.8
//	    rewrites 80% of arrivals to the app's fixed recurring read-only
//	    shapes — the steady-state workload whose epochs repeat, so a
//	    warm `karousos-auditd -memo` pass serves them from its cache.
//
// Exit codes: 0 every arrival resolved to 200/429/local-shed (and, with
// -audit, everything audited clean and identically); 2 an overload or
// audit invariant failed; 1 infrastructure error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/chaos"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "karousos-loadgen:", err)
	return 1
}

// run is main with its environment explicit so tests drive the CLI
// in-process and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("karousos-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "collector base URL; empty boots a self-contained collector on loopback")
	target := fs.String("target", "", "gateway base URL: drive a sharded topology and split the ledger per shard (X-Karousos-Shard)")
	dir := fs.String("dir", "", "epoch log directory for the self-contained collector (default: a fresh temp dir)")
	app := fs.String("app", "motd", "workload application: motd, stacks, wiki, feeds")
	mix := fs.String("mix", "mixed", "read/write mix: read-heavy, write-heavy, mixed")
	n := fs.Int("n", 1000, "number of arrivals to offer")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = pure burst)")
	outstanding := fs.Int("outstanding", 64, "max concurrently outstanding requests; due arrivals past it shed locally")
	seed := fs.Int64("seed", 42, "workload and scheduler seed")
	repeatMix := fs.Float64("repeat-mix", 0, "fraction [0,1] of arrivals rewritten to the app's fixed recurring read-only shapes — the steady-state workload behind the warm memo-cache claim")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	slowEvery := fs.Int("slow-every", 0, "trickle every Nth request body through a slow chunked reader (0 = never)")
	epochReqs := fs.Int("epoch-requests", 50, "self-contained collector: seal after this many requests")
	commit := fs.String("commit", "group", "self-contained collector: commit mode (group, per-request, async)")
	maxInflight := fs.Int("max-inflight", 0, "self-contained collector: admission window (0 = default)")
	maxQueuedBytes := fs.Int64("max-queued-bytes", 0, "self-contained collector: queued-bytes ceiling (0 = default)")
	audit := fs.Bool("audit", false, "after the run, re-audit the sealed log at workers 1 and 4 and require identical clean verdicts (self-contained mode only)")
	asJSON := fs.Bool("json", false, "print the result as JSON instead of the text summary")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var mixVal workload.Mix
	switch *mix {
	case "read-heavy":
		mixVal = workload.ReadHeavy
	case "write-heavy":
		mixVal = workload.WriteHeavy
	case "mixed", "":
		mixVal = workload.Mixed
	default:
		return fail(stderr, fmt.Errorf("unknown mix %q (read-heavy, write-heavy, mixed)", *mix))
	}

	if *target != "" && *url != "" {
		return fail(stderr, fmt.Errorf("-target and -url are exclusive: a run drives either the gateway or one collector"))
	}
	if *target != "" && *audit {
		return fail(stderr, fmt.Errorf("-audit needs the self-contained collector; a gateway's per-shard logs are audited with karousos-auditd -shards"))
	}
	base := *url
	if *target != "" {
		base = *target
	}
	logDir := *dir
	var col *collectorhttp.Collector
	if base == "" {
		// Self-contained mode: boot a collector on loopback so one command
		// is a full load story — generate, shed, seal, (optionally) audit.
		spec, err := harness.SpecByName(*app)
		if err != nil {
			return fail(stderr, err)
		}
		if logDir == "" {
			tmp, err := os.MkdirTemp("", "karousos-loadgen-")
			if err != nil {
				return fail(stderr, err)
			}
			defer os.RemoveAll(tmp)
			logDir = tmp
		}
		col, err = collectorhttp.New(collectorhttp.Config{
			Spec:           spec,
			Dir:            logDir,
			EpochRequests:  *epochReqs,
			Seed:           *seed,
			Limits:         verifier.DefaultLimits(),
			Commit:         collectorhttp.CommitMode(*commit),
			MaxInflight:    *maxInflight,
			MaxQueuedBytes: *maxQueuedBytes,
		})
		if err != nil {
			return fail(stderr, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			col.Close()
			return fail(stderr, err)
		}
		hs := &http.Server{Handler: col.Handler()}
		go func() { hs.Serve(ln) }() //karousos:errladder-ok Serve returns ErrServerClosed on the deferred Close
		defer hs.Close()
		defer col.Close()
		base = "http://" + ln.Addr().String()
	} else if *audit {
		return fail(stderr, fmt.Errorf("-audit needs the self-contained collector (drop -url); an external log directory is not re-audited in place"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:        base,
		App:            *app,
		Mix:            mixVal,
		Requests:       *n,
		Rate:           *rate,
		MaxOutstanding: *outstanding,
		Seed:           *seed,
		RepeatMix:      *repeatMix,
		Timeout:        *timeout,
		SlowEvery:      *slowEvery,
		TrackShards:    *target != "",
	})
	if err != nil {
		return fail(stderr, err)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return fail(stderr, err)
		}
	} else {
		fmt.Fprint(stdout, res.Summary())
	}

	code := 0
	if res.ServerErr != 0 || res.NetErr != 0 || res.OtherStatus != 0 {
		fmt.Fprintf(stderr, "LOADGEN INVARIANT VIOLATED: %d serverErr, %d netErr, %d other — overload must resolve to 200 or 429\n",
			res.ServerErr, res.NetErr, res.OtherStatus)
		code = 2
	}

	if *audit {
		// The collector must seal its tail before the log is re-audited;
		// Close is idempotent, so the deferred one is a no-op after this.
		if err := col.Close(); err != nil {
			return fail(stderr, err)
		}
		out, diff, err := chaos.Reaudit(ctx, auditd.ShardedConfig{Map: &shard.Map{Shards: 1}, Dirs: []string{logDir}})
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
		fmt.Fprintln(stdout, "LOADGEN OK")
	}
	return code
}
