// karousos-gateway is the sharded topology's HTTP front door:
//
//	karousos-gateway serve -local -app wiki -shards 4 -root shards -addr :8081
//	    boots one collector per shard in-process (each with its own epoch
//	    log under root/shard-NN), writes the shard map, and serves the
//	    gateway that routes /invoke requests to their home shard;
//
//	karousos-gateway serve -root shards -backends http://h0:8080,http://h1:8080
//	    fronts externally running collectors (one karousos-auditd serve
//	    per shard) with the map read from root/shardmap.json;
//
//	karousos-gateway pipeline -app wiki -shards 4 -n 200 -epoch-requests 25
//	    runs the whole sharded loop in one process — gateway over loopback
//	    HTTP, N requests fanned to their shards, seal, shard-parallel
//	    audit with the cross-shard merge — and exits by the combined
//	    verdict.
//
// The gateway is deliberately dumb: routing is a pure function of the
// shard map and the request input, so any auditor can re-derive every
// routing decision from the map file and the per-shard traces alone.
// Exit codes are scriptable: 0 accepted, 2 rejected (the merged code and
// reason are printed), 1 infrastructure error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/netfault"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment explicit so tests drive the CLI
// in-process and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 1
	}
	switch args[0] {
	case "serve":
		return serveCmd(args[1:], stdout, stderr)
	case "pipeline":
		return pipelineCmd(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: karousos-gateway serve|pipeline [flags]

  serve     front a shard topology: -local boots collectors in-process,
            -backends fronts external ones (map read from -root)
  pipeline  gateway + shards + shard-parallel audit in one process; the
            exit code is the combined verdict`)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "karousos-gateway:", err)
	return 1
}

// mapFor builds the topology for -local mode. The default key fields are
// the wiki application's ("id" on create/render, "page" on comment) —
// the one bundled app whose store keys are page-local and therefore
// shardable.
func mapFor(shards int, keyFields string) shard.Map {
	m := shard.Map{Shards: shards}
	for _, f := range strings.Split(keyFields, ",") {
		if f = strings.TrimSpace(f); f != "" {
			m.KeyFields = append(m.KeyFields, f)
		}
	}
	return m
}

func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8081", "gateway listen address")
	root := fs.String("root", "karousos-shards", "topology root (shardmap.json plus, in -local mode, the shard-NN epoch logs)")
	backends := fs.String("backends", "", "comma-separated shard backend URLs, indexed by shard (external mode)")
	local := fs.Bool("local", false, "boot one collector per shard in-process instead of fronting external backends")
	app := fs.String("app", "wiki", "application served by every shard (-local mode)")
	shards := fs.Int("shards", 4, "shard count (-local mode)")
	keyFields := fs.String("key-fields", "id,page", "input fields tried in order for the locality key (-local mode)")
	epochReqs := fs.Int("epoch-requests", 50, "per-shard seal threshold (-local mode)")
	maxAge := fs.Duration("epoch-max-age", 0, "seal non-empty epochs older than this (0 = disabled, -local mode)")
	seed := fs.Int64("seed", 42, "scheduler seed; shard s serves with seed+s (-local mode)")
	commit := fs.String("commit", "group", "trace commit mode per shard: group, per-request, async (-local mode)")
	maxInflight := fs.Int("max-inflight", 0, "per-shard admission window (0 = default, -local mode)")
	drain := fs.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
	perTry := fs.Duration("per-try-timeout", 0, "per-attempt budget on proxied requests (0 = default 2s)")
	maxRetries := fs.Int("max-retries", 0, "extra attempts for provably-unsent requests (0 = default 2, -1 = none)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive transport failures that open a shard's circuit (0 = default 5)")
	breakerOpenFor := fs.Duration("breaker-open-for", 0, "open-circuit window before a half-open probe (0 = default 1s)")
	hedgeAfter := fs.Duration("hedge-after", 0, "race a second idempotent health probe after this long (0 = no hedging)")
	netfaultSpec := fs.String("netfault", "", "arm a network fault on the proxy path, \"op[:seed[:times]]\" (testing)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	tuning := gateway.Tuning{
		PerTryTimeout:   *perTry,
		MaxRetries:      *maxRetries,
		BreakerFailures: *breakerFailures,
		BreakerOpenFor:  *breakerOpenFor,
		HedgeAfter:      *hedgeAfter,
	}
	var transport http.RoundTripper
	if *netfaultSpec != "" {
		inj := netfault.NewInjector()
		if err := inj.ArmSpec(*netfaultSpec, ""); err != nil {
			return fail(stderr, err)
		}
		transport = inj.Transport(nil)
	}

	var handler http.Handler
	closer := func() error { return nil }
	switch {
	case *local:
		spec, err := harness.SpecByName(*app)
		if err != nil {
			return fail(stderr, err)
		}
		top, err := gateway.NewLocal(gateway.LocalConfig{
			Spec:          spec,
			Root:          *root,
			Map:           mapFor(*shards, *keyFields),
			EpochRequests: *epochReqs,
			EpochMaxAge:   *maxAge,
			Seed:          *seed,
			Commit:        collectorhttp.CommitMode(*commit),
			Limits:        verifier.DefaultLimits(),
			MaxInflight:   *maxInflight,
			Transport:     transport,
			Tuning:        tuning,
		})
		if err != nil {
			return fail(stderr, err)
		}
		handler = top.Handler()
		// Close seals every shard's open epoch — a SIGTERM must not strand
		// recorded requests in unsealed (unauditable-by-absence) epochs.
		closer = top.Close
		fmt.Fprintf(stdout, "local topology: %d shards of %s under %s\n", *shards, *app, *root)
	case *backends != "":
		m, err := shard.ReadMap(*root)
		if err != nil {
			return fail(stderr, fmt.Errorf("reading shard map: %w", err))
		}
		gw, err := gateway.New(gateway.Config{Map: m, Backends: strings.Split(*backends, ","), Transport: transport, Tuning: tuning})
		if err != nil {
			return fail(stderr, err)
		}
		handler = gw.Handler()
		fmt.Fprintf(stdout, "fronting %d external shard backends, map from %s\n", m.Shards, *root)
	default:
		return fail(stderr, errors.New("serve needs -local or -backends"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closer() //karousos:errladder-ok the listen failure is the error that surfaces
		return fail(stderr, err)
	}
	// Header/read/idle timeouts keep a stalled client from pinning a
	// connection forever; no WriteTimeout because shard responses are
	// bounded by the collectors' own limits.
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			hs.Close()
		}
	}()
	fmt.Fprintf(stdout, "gateway listening on %s\n", ln.Addr())
	err = hs.Serve(ln)
	if closeErr := closer(); closeErr != nil {
		return fail(stderr, closeErr)
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(stderr, err)
	}
	return 0
}

func pipelineCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "wiki", "application served by every shard")
	shards := fs.Int("shards", 4, "shard count")
	keyFields := fs.String("key-fields", "id,page", "input fields tried in order for the locality key")
	n := fs.Int("n", 200, "number of requests to drive through the gateway")
	epochReqs := fs.Int("epoch-requests", 25, "per-shard seal threshold")
	root := fs.String("root", "", "topology root (default: a fresh temp dir)")
	seed := fs.Int64("seed", 42, "workload and scheduler seed")
	lanes := fs.Int("lanes", 0, "concurrent audit lanes (0 = one per shard)")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall pipeline budget")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	spec, err := harness.SpecByName(*app)
	if err != nil {
		return fail(stderr, err)
	}
	if *root == "" {
		tmp, err := os.MkdirTemp("", "karousos-shards-")
		if err != nil {
			return fail(stderr, err)
		}
		defer os.RemoveAll(tmp)
		*root = tmp
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec:          spec,
		Root:          *root,
		Map:           mapFor(*shards, *keyFields),
		EpochRequests: *epochReqs,
		Seed:          *seed,
		Limits:        verifier.DefaultLimits(),
	})
	if err != nil {
		return fail(stderr, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		top.Close() //karousos:errladder-ok the listen failure is the error that surfaces
		return fail(stderr, err)
	}
	hs := &http.Server{Handler: top.Gateway.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln) //karousos:errladder-ok Serve returns ErrServerClosed on the Close below; request failures surface per request

	served, refused := 0, 0
	base := "http://" + ln.Addr().String()
	for _, r := range workloadFor(*app, *n, *seed) {
		body, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			hs.Close()
			top.Close() //karousos:errladder-ok the marshal failure is the error that surfaces
			return fail(stderr, err)
		}
		resp, err := http.Post(base+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			refused++
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			served++
		} else {
			refused++
		}
	}
	hs.Close()
	if err := top.Close(); err != nil {
		return fail(stderr, err)
	}

	sh, err := auditd.NewSharded(auditd.ShardedConfig{
		Root:   *root,
		Lanes:  *lanes,
		Limits: verifier.DefaultLimits(),
	})
	if err != nil {
		return fail(stderr, err)
	}
	res, err := sh.Audit(ctx)
	if err != nil {
		return fail(stderr, err)
	}
	for _, rep := range res.Shards {
		verdict := "accepted"
		if rep.Code != "" {
			verdict = fmt.Sprintf("[%s] %s", rep.Code, rep.Reason)
		}
		fmt.Fprintf(stdout, "shard %d: %d epochs audited, %s\n", rep.Shard, rep.Status.LastProcessed, verdict)
	}
	if !res.Accepted() {
		fmt.Fprintf(stderr, "PIPELINE REJECTED [%s]: %s\n", res.Merge.Code, res.Merge.Reason)
		for _, c := range res.Merge.Conflicts {
			fmt.Fprintf(stderr, "  conflict: key %q claimed by shards %v\n", c.Key, c.Shards)
		}
		return 2
	}
	routed := top.Gateway.Counters()
	busy := 0
	for _, c := range routed {
		if c.Routed > 0 {
			busy++
		}
	}
	fmt.Fprintf(stdout, "PIPELINE ACCEPTED: served %d requests (%d refused) across %d of %d shards, %d handlers re-run\n",
		served, refused, busy, *shards, res.Stats.HandlersRerun)
	return 0
}

func workloadFor(name string, n int, seed int64) []server.Request {
	switch name {
	case "motd":
		return workload.MOTD(n, workload.Mixed, seed)
	case "stacks":
		return workload.Stacks(n, workload.Mixed, seed, workload.DefaultStacksOptions())
	default:
		return workload.Wiki(n, seed)
	}
}
