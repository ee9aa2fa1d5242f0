package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
)

// LocalConfig describes an in-process shard topology: N collectors on
// loopback listeners behind one gateway, sharing a topology root.
type LocalConfig struct {
	// Spec is the application every shard serves.
	Spec harness.AppSpec
	// Root is the topology root; shardmap.json and the shard-NN epoch-log
	// directories are created under it.
	Root string
	// Map is the topology. Validate must pass.
	Map shard.Map
	// EpochRequests, Seed, Limits, FS pass through to each shard's
	// collector. Shard s serves with Seed+s so the shards' schedules
	// differ the way independent processes' would.
	EpochRequests int
	EpochMaxAge   time.Duration
	Seed          int64
	Limits        verifier.Limits
	FS            iofault.FS
	// MaxInflight and MaxAuditLag pass through to each shard's admission
	// control; AuditProgress, when set, is called with the shard index.
	MaxInflight   int
	MaxAuditLag   int
	AuditProgress func(shardIndex int) (lastAudited uint64, ok bool)
	// Transport passes through to the gateway (Config.Transport).
	Transport http.RoundTripper
}

// Local is a running in-process topology. Chaos scenarios and the CLI's
// -local mode use it; a real deployment runs one collector process per
// shard and a standalone gateway instead.
type Local struct {
	Map     shard.Map
	Root    string
	Gateway *Gateway

	cfg     LocalConfig
	cols    []*collectorhttp.Collector
	servers []*httptest.Server
}

// NewLocal writes the shard map, boots one collector per shard on a
// loopback listener, and fronts them with a gateway.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if err := shard.WriteMap(cfg.FS, cfg.Root, cfg.Map); err != nil {
		return nil, err
	}
	t := &Local{
		Map:     cfg.Map,
		Root:    cfg.Root,
		cfg:     cfg,
		cols:    make([]*collectorhttp.Collector, cfg.Map.Shards),
		servers: make([]*httptest.Server, cfg.Map.Shards),
	}
	backends := make([]string, cfg.Map.Shards)
	for s := range backends {
		if err := t.boot(s); err != nil {
			t.Close() // partial-boot cleanup; the boot failure is the error that surfaces
			return nil, err
		}
		backends[s] = t.servers[s].URL
	}
	gw, err := New(Config{Map: cfg.Map, Backends: backends, Transport: cfg.Transport})
	if err != nil {
		t.Close() // partial-boot cleanup; the gateway failure is the error that surfaces
		return nil, err
	}
	t.Gateway = gw
	return t, nil
}

// Handler returns the gateway's HTTP mux.
func (t *Local) Handler() http.Handler { return t.Gateway.Handler() }

// boot starts (or restarts) shard s's collector on its epoch-log
// directory. Reopening a directory a crashed incarnation wrote is a
// collector restart: the partial epoch seals degraded, and the next epoch
// is marked fresh (collectorhttp.recoverIncarnation).
func (t *Local) boot(s int) error {
	ccfg := collectorhttp.Config{
		Spec:          t.cfg.Spec,
		Dir:           shard.Dir(t.cfg.Root, s),
		EpochRequests: t.cfg.EpochRequests,
		EpochMaxAge:   t.cfg.EpochMaxAge,
		Seed:          t.cfg.Seed + int64(s),
		Limits:        t.cfg.Limits,
		FS:            t.cfg.FS,
		MaxInflight:   t.cfg.MaxInflight,
		MaxAuditLag:   t.cfg.MaxAuditLag,
	}
	if t.cfg.AuditProgress != nil {
		ccfg.AuditProgress = func() (uint64, bool) { return t.cfg.AuditProgress(s) }
	}
	col, err := collectorhttp.New(ccfg)
	if err != nil {
		return fmt.Errorf("gateway: shard %d collector: %w", s, err)
	}
	t.cols[s] = col
	t.servers[s] = httptest.NewServer(col.Handler())
	return nil
}

// Collector returns shard s's live collector (nil while crashed).
func (t *Local) Collector(s int) *collectorhttp.Collector { return t.cols[s] }

// Crash kills shard s the way a killed process would: listener gone,
// no seal, the active epoch's tail left for the next incarnation.
func (t *Local) Crash(s int) error {
	if t.servers[s] != nil {
		t.servers[s].Close()
		t.servers[s] = nil
	}
	col := t.cols[s]
	t.cols[s] = nil
	if col == nil {
		return nil
	}
	return col.Crash()
}

// Restart boots a fresh incarnation of shard s on its directory and
// repoints the gateway at the new listener.
func (t *Local) Restart(s int) error {
	if t.cols[s] != nil {
		return fmt.Errorf("gateway: shard %d is still running", s)
	}
	if err := t.boot(s); err != nil {
		return err
	}
	return t.Gateway.SetBackend(s, t.servers[s].URL)
}

// Close seals and stops every live shard. The first error wins; the rest
// still close.
func (t *Local) Close() error {
	var first error
	for s := range t.cols {
		if t.servers[s] != nil {
			t.servers[s].Close()
			t.servers[s] = nil
		}
		if t.cols[s] == nil {
			continue
		}
		if err := t.cols[s].Close(); err != nil && first == nil {
			first = err
		}
		t.cols[s] = nil
	}
	return first
}
