// karousos is the command-line front of the continuous-audit system. A
// deployment is a topology of N≥1 shards — a bare collector log is the
// one-shard topology — and every subcommand speaks that one shape:
//
//	karousos serve -app wiki -dir epochs -addr :8080 -epoch-requests 50
//	    one collector: serves the application over HTTP, records the
//	    trusted trace into a durable epoch log, seals epochs as thresholds
//	    are crossed;
//
//	karousos gateway -local -app wiki -shards 4 -root shards -addr :8081
//	karousos gateway -root shards -backends http://h0:8080,http://h1:8080
//	    the front door: routes /invoke by locality key to in-process
//	    collectors (-local) or external `karousos serve` backends;
//
//	karousos audit -dir <log or topology root> [-checkpoint dir] [-follow] [-graph dir]
//	    the sharded auditor: one lane per shard, each epoch routing-
//	    checked then audited in order, joined by the cross-shard merge;
//	    -graph writes every graded epoch's execution graph as Graphviz DOT;
//
//	karousos status -dir <log or topology root> [-checkpoint dir]
//	    sealed manifests and audit progress per shard, as JSON;
//
//	karousos chaos -scenario pipeline|shard-kill|overload-burst|… -seed 11
//	    stands a topology up in-process, drives a workload, follows it with
//	    a live auditor and checks every robustness invariant;
//
//	karousos load -url U -n 2000 -rate 500
//	    the external client: drives a running collector or gateway and
//	    prints the arrival ledger, per shard behind a gateway.
//
//	karousos figures [-fig 7] [-requests 300 -trials 1 -conc 1,30]
//	    regenerates the tables behind the paper's evaluation (Figures 6–12);
//	    operational numbers come from `bash benchmark/run.sh` instead.
//
// Exit codes are the same everywhere: 0 accepted (chaos, load: every
// invariant held; figures: tables printed), 2 the merged
// verdict is not an accept or an invariant was violated (the code and
// reason are printed), 1 infrastructure error or bad arguments.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/verifier"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var commands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"serve":   serveCmd,
	"gateway": gatewayCmd,
	"audit":   auditCmd,
	"status":  statusCmd,
	"chaos":   chaosCmd,
	"load":    loadCmd,
	"figures": figuresCmd,
}

// run is main with its environment explicit so tests drive the CLI
// in-process and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if cmd, ok := commands[args[0]]; ok {
			return cmd(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, `usage: karousos serve|gateway|audit|status|chaos|load|figures [flags]

  serve    one collector: serve an app over HTTP into a durable epoch log
  gateway  front a shard topology (-local boots the collectors in-process,
           -backends fronts external ones)
  audit    audit a log or topology root; exits 0 ACCEPT, 2 not, 1 error
           (-graph DIR writes each epoch's execution graph as DOT)
  status   print sealed manifests and audit progress per shard
  chaos    replay a scenario (-scenario name or -scenario-file); exits 0
           if every robustness invariant held
  load     drive a running collector or gateway (-url) and print the
           arrival ledger
  figures  regenerate the paper's evaluation tables (Figures 6–12; -fig N)`)
	return 1
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "karousos:", err)
	return 1
}

func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

// scratchDir returns dir, or a fresh temp dir when dir is empty; cleanup
// removes only what scratchDir created.
func scratchDir(dir, pattern string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", pattern)
	return tmp, func() { os.RemoveAll(tmp) }, err
}

// serveHTTP is the one serve loop: it serves h on addr until SIGINT or
// SIGTERM, gives in-flight requests up to drain to finish — their trace
// events must land in the log — and only then runs onShutdown, which seals
// whatever the handler recorded: a stop must not strand acknowledged
// requests in an unsealed (hence unauditable-by-absence) epoch.
func serveHTTP(addr string, h http.Handler, drain time.Duration, onShutdown func() error) error {
	// Header/read/idle timeouts keep a stalled or malicious client from
	// pinning a connection (and its goroutine) forever; no WriteTimeout
	// because audited handlers are already bounded by the verifier limits.
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			hs.Close() // force-close whatever hangs past the grace period
		}
	}()
	err := hs.ListenAndServe()
	// ListenAndServe returns as soon as Shutdown begins (or the listen
	// failed): release the drain goroutine and wait for it either way.
	stop()
	<-drained
	if cerr := onShutdown(); cerr != nil {
		return cerr
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// collectorFlags is the flag group every subcommand that boots collectors
// registers: serve and gateway -local.
type collectorFlags struct {
	app         *string
	epochReqs   *int
	maxAge      *time.Duration
	seed        *int64
	maxInflight *int
}

func registerCollectorFlags(fs *flag.FlagSet) collectorFlags {
	return collectorFlags{
		app:         fs.String("app", "wiki", "application: motd, stacks, wiki, feeds"),
		epochReqs:   fs.Int("epoch-requests", 50, "seal a collector's epoch after this many requests (0 = /seal endpoint only)"),
		maxAge:      fs.Duration("epoch-max-age", 0, "seal non-empty epochs older than this (0 = disabled)"),
		seed:        fs.Int64("seed", 42, "workload and scheduler seed; shard s serves with seed+s"),
		maxInflight: fs.Int("max-inflight", 0, "admission window per collector: max requests between admit and durable commit (0 = default 256)"),
	}
}

// config is the group's share of one collector's configuration.
func (f collectorFlags) config(dir string) (collectorhttp.Config, error) {
	spec, err := harness.SpecByName(*f.app)
	return collectorhttp.Config{
		Spec:          spec,
		Dir:           dir,
		EpochRequests: *f.epochReqs,
		EpochMaxAge:   *f.maxAge,
		Seed:          *f.seed,
		Limits:        verifier.DefaultLimits(),
		MaxInflight:   *f.maxInflight,
	}, err
}
