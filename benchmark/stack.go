package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
)

// livePoll is the follow-mode polling interval of the live auditor.
const livePoll = 20 * time.Millisecond

// stack is the system under test, booted in-process: either one collector
// behind its own listener, or a gateway.Local topology, optionally with a
// sharded auditor following the logs while they are written.
type stack struct {
	root string   // topology root (sharded) or the one epoch-log directory
	dirs []string // epoch-log directories, by shard
	url  string
	fs   *timingFS // nil when tracing is off

	front *httptest.Server
	col   *collectorhttp.Collector
	top   *gateway.Local
	live  *liveAudit
}

// boot stands the stack up under dir. rec == nil is tracing off: the real
// filesystem, the default transport and bare handlers, nothing in between.
func boot(def workloadDef, dir string, seed int64, nproc int, rec *recorder) (*stack, error) {
	st := &stack{root: dir}
	var fsys iofault.FS
	if rec != nil {
		st.fs = newTimingFS(rec)
		fsys = st.fs
	}
	var handler http.Handler
	if def.Shards > 0 {
		cfg := gateway.LocalConfig{
			Spec:          def.Spec,
			Root:          dir,
			Map:           shard.Map{Shards: def.Shards, KeyFields: []string{"id", "page"}},
			EpochRequests: def.EpochRequests,
			Seed:          seed,
			Limits:        verifier.DefaultLimits(),
			FS:            fsys,
		}
		if rec != nil {
			cfg.Transport = timingTransport{rec: rec, next: http.DefaultTransport}
		}
		top, err := gateway.NewLocal(cfg)
		if err != nil {
			return nil, err
		}
		st.top = top
		st.dirs = cfg.Map.Dirs(dir)
		handler = traceHandler(rec, spanGateway, top.Handler())
	} else {
		col, err := collectorhttp.New(collectorhttp.Config{
			Spec:          def.Spec,
			Dir:           dir,
			EpochRequests: def.EpochRequests,
			Seed:          seed,
			Limits:        verifier.DefaultLimits(),
			FS:            fsys,
		})
		if err != nil {
			return nil, err
		}
		st.col = col
		st.dirs = []string{dir}
		handler = traceHandler(rec, spanInvoke, col.Handler())
	}
	st.front = httptest.NewServer(handler)
	st.url = st.front.URL
	if def.Live {
		live, err := startLive(dir, nproc)
		if err != nil {
			st.close()
			return nil, err
		}
		st.live = live
	}
	return st, nil
}

// close stops serving, seals every partial epoch, and — when a live auditor
// is attached — waits for it to grade everything that was sealed.
func (st *stack) close() error {
	st.front.Close()
	var err error
	if st.top != nil {
		err = st.top.Close()
	} else {
		err = st.col.Close()
	}
	if st.live != nil {
		if lerr := st.live.finish(st.dirs); err == nil {
			err = lerr
		}
	}
	return err
}

// shed is how many arrivals the collectors refused with 429.
func (st *stack) shed() uint64 {
	if st.col != nil {
		return st.col.Status().Shed
	}
	var n uint64
	for s := range st.dirs {
		if c := st.top.Collector(s); c != nil {
			n += c.Status().Shed
		}
	}
	return n
}

// retries is how many proxied attempts the gateway re-issued.
func (st *stack) retries() uint64 {
	if st.top == nil {
		return 0
	}
	var n uint64
	for _, c := range st.top.Gateway.Counters() {
		n += c.Retries
	}
	return n
}

// sealed lists every sealed epoch's manifest, by shard.
func sealed(dirs []string) ([][]epochlog.Manifest, error) {
	out := make([][]epochlog.Manifest, len(dirs))
	for s, d := range dirs {
		ms, err := epochlog.ListSealed(d)
		if err != nil {
			return nil, err
		}
		out[s] = ms
	}
	return out, nil
}

// liveAudit is the sharded auditor in follow mode plus the seal→verdict lag
// of every epoch it graded.
type liveAudit struct {
	cancel context.CancelFunc
	done   chan error

	mu       sync.Mutex
	lags     []time.Duration
	verdicts int
	rejected []string
}

func startLive(root string, nproc int) (*liveAudit, error) {
	la := &liveAudit{done: make(chan error, 1)}
	m, err := shard.ReadMap(root)
	if err != nil {
		return nil, err
	}
	dirs := m.Dirs(root)
	sh, err := auditd.NewSharded(auditd.ShardedConfig{
		Root:   root,
		Lanes:  nproc,
		Limits: verifier.DefaultLimits(),
		Poll:   livePoll,
		OnVerdict: func(s int, v auditd.Verdict) {
			now := time.Now()
			manifest := filepath.Join(dirs[s], fmt.Sprintf("ep%06d.manifest", v.Epoch))
			la.mu.Lock()
			defer la.mu.Unlock()
			la.verdicts++
			if !v.Accepted() {
				la.rejected = append(la.rejected, fmt.Sprintf("shard %d epoch %d: [%s] %s", s, v.Epoch, v.Code, v.Reason))
			}
			// The manifest's mtime is the moment the seal became visible
			// to an auditor.
			if fi, err := os.Stat(manifest); err == nil {
				la.lags = append(la.lags, now.Sub(fi.ModTime()))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	la.cancel = cancel
	go func() { la.done <- sh.Run(ctx) }()
	return la, nil
}

// finish waits until the follower has graded every sealed epoch, then stops
// it.
func (la *liveAudit) finish(dirs []string) error {
	defer la.cancel()
	ms, err := sealed(dirs)
	if err != nil {
		return err
	}
	want := 0
	for _, m := range ms {
		want += len(m)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		la.mu.Lock()
		got, rejected := la.verdicts, la.rejected
		la.mu.Unlock()
		if len(rejected) > 0 {
			return fmt.Errorf("live auditor did not accept: %v", rejected)
		}
		if got >= want {
			break
		}
		select {
		case err := <-la.done:
			return fmt.Errorf("live auditor stopped after %d of %d epochs: %v", got, want, err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live auditor graded %d of %d sealed epochs within 30s", got, want)
		}
		time.Sleep(livePoll / 4)
	}
	la.cancel()
	if err := <-la.done; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("live auditor: %w", err)
	}
	return nil
}
