package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/workload"
)

// loadCmd is the external client: it drives a running collector (`karousos
// serve`) or gateway with the shared driver and prints the arrival ledger,
// split per shard when the answers carry X-Karousos-Shard. The
// self-contained overload story — boot a collector, burst past its window,
// re-audit — is `karousos chaos -scenario overload-burst`.
func loadCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("load", stderr)
	url := fs.String("url", "", "base URL of the collector or gateway to drive")
	app := fs.String("app", "wiki", "application the target serves: motd, stacks, wiki, feeds")
	mix := fs.String("mix", "mixed", "read/write mix: read-heavy, write-heavy, mixed")
	n := fs.Int("n", 1000, "number of arrivals to offer")
	rate := fs.Float64("rate", 0, "arrival rate in req/s (0 = every arrival due at once)")
	outstanding := fs.Int("outstanding", 64, "max concurrently outstanding requests; due arrivals past it shed locally (1 = closed loop, nothing shed)")
	repeatMix := fs.Float64("repeat-mix", 0, "fraction [0,1] of arrivals rewritten to the app's fixed recurring read-only shapes — the steady-state workload behind the warm memo-cache claim")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	slowEvery := fs.Int("slow-every", 0, "trickle every Nth request body through a slow chunked reader (0 = never)")
	seed := fs.Int64("seed", 42, "workload seed")
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
	if *url == "" {
		return fail(stderr, errors.New("load needs -url: start a target with `karousos serve` or `karousos gateway`, or run the self-contained `karousos chaos -scenario overload-burst`"))
	}
	reqs, err := loadgen.Stream(*app, mixVal, *n, *seed, *repeatMix)
	if err != nil {
		return fail(stderr, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:        *url,
		Rate:           *rate,
		MaxOutstanding: *outstanding,
		Timeout:        *timeout,
		SlowEvery:      *slowEvery,
	}, reqs)
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
	if res.Other != 0 || res.NetErr != 0 {
		fmt.Fprintf(stderr, "LOAD INVARIANT VIOLATED: %d unanswered, %d answered otherwise — overload must resolve to 200, 429 or a hinted 503\n",
			res.NetErr, res.Other)
		return 2
	}
	fmt.Fprintln(stdout, "LOAD OK")
	return 0
}
