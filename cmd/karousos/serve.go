package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/netfault"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
)

// serveCmd is one collector process — what an operator runs per shard, and
// exactly what the fleet supervisor re-execs.
func serveCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("serve", stderr)
	cf := registerCollectorFlags(fs)
	dir := fs.String("dir", "karousos-epochs", "epoch log directory")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	drain := fs.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
	maxQueuedBytes := fs.Int64("max-queued-bytes", 0, "admission ceiling on queued request bytes (0 = default 32 MiB)")
	retryAfter := fs.Duration("retry-after", 0, "base Retry-After hint on 429 responses (0 = default 1s)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline through serve and commit (0 = none)")
	maxAuditLag := fs.Int("max-audit-lag", 0, "tighten admission and fail /readyz when the auditor falls this many epochs behind (0 = default when a checkpoint is followed)")
	auditCkpt := fs.String("audit-checkpoint", "", "the auditor's resume file for this log (checkpoint-shard-NN.json in its -checkpoint directory) to follow for lag-based backpressure (\"\" = none)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	cfg, err := cf.config(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	cfg.MaxQueuedBytes = *maxQueuedBytes
	cfg.RetryAfter = *retryAfter
	cfg.RequestTimeout = *reqTimeout
	cfg.MaxAuditLag = *maxAuditLag
	if *auditCkpt != "" {
		// The auditor is a separate process; its durable checkpoint is the
		// one signal both sides already agree on, so lag-based backpressure
		// and memo telemetry read it instead of inventing an RPC.
		// Only a missing checkpoint is "no lag signal"; a corrupt one is
		// known progress zero (see auditd.CheckpointProbe).
		cfg.AuditProgress = func() (uint64, bool) {
			last, _, probe := auditd.ProbeCheckpoint(nil, *auditCkpt)
			return last, probe != auditd.CheckpointMissing
		}
		cfg.AuditMemo = func() (collectorhttp.AuditMemoState, bool) {
			_, mc, _ := auditd.ProbeCheckpoint(nil, *auditCkpt)
			if mc == nil {
				return collectorhttp.AuditMemoState{}, false
			}
			return collectorhttp.AuditMemoState{Hits: mc.Hits, Misses: mc.Misses, Evictions: mc.Evictions}, true
		}
	}
	col, err := collectorhttp.New(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "serving %s on %s, epoch log %s (seal every %d requests)\n", *cf.app, *addr, *dir, *cf.epochReqs)
	if err := serveHTTP(*addr, col.Handler(), *drain, col.Close); err != nil {
		return fail(stderr, err)
	}
	st := col.Status()
	fmt.Fprintf(stdout, "sealed %d epochs, served %d requests\n", st.SealedEpochs, st.Served)
	return 0
}

// gatewayCmd is the topology's front door. The gateway is deliberately
// dumb: routing is a pure function of the shard map and the request input,
// so any auditor can re-derive every routing decision from the map file and
// the per-shard traces alone.
func gatewayCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("gateway", stderr)
	cf := registerCollectorFlags(fs) // -local mode
	addr := fs.String("addr", "127.0.0.1:8081", "gateway listen address")
	root := fs.String("root", "karousos-shards", "topology root (shardmap.json plus, in -local mode, the shard-NN epoch logs)")
	backends := fs.String("backends", "", "comma-separated shard backend URLs, indexed by shard (external mode)")
	local := fs.Bool("local", false, "boot one collector per shard in-process instead of fronting external backends")
	shards := fs.Int("shards", 4, "shard count (-local mode)")
	keyFields := fs.String("key-fields", "id,page", "input fields tried in order for the locality key (-local mode)")
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
	onShutdown := func() error { return nil }
	switch {
	case *local:
		spec, err := harness.SpecByName(*cf.app)
		if err != nil {
			return fail(stderr, err)
		}
		// The default key fields are the wiki application's ("id" on
		// create/render, "page" on comment) — the one bundled app whose
		// store keys are page-local and therefore shardable.
		m := shard.Map{Shards: *shards}
		for _, f := range strings.Split(*keyFields, ",") {
			if f = strings.TrimSpace(f); f != "" {
				m.KeyFields = append(m.KeyFields, f)
			}
		}
		top, err := gateway.NewLocal(gateway.LocalConfig{
			Spec:          spec,
			Root:          *root,
			Map:           m,
			EpochRequests: *cf.epochReqs,
			EpochMaxAge:   *cf.maxAge,
			Seed:          *cf.seed,
			Commit:        collectorhttp.CommitMode(*cf.commit),
			Limits:        verifier.DefaultLimits(),
			MaxInflight:   *cf.maxInflight,
			Transport:     transport,
			Tuning:        tuning,
		})
		if err != nil {
			return fail(stderr, err)
		}
		handler, onShutdown = top.Handler(), top.Close
		fmt.Fprintf(stdout, "local topology: %d shards of %s under %s\n", *shards, *cf.app, *root)
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
		return fail(stderr, errors.New("gateway needs -local or -backends"))
	}
	fmt.Fprintf(stdout, "gateway listening on %s\n", *addr)
	if err := serveHTTP(*addr, handler, *drain, onShutdown); err != nil {
		return fail(stderr, err)
	}
	return 0
}
