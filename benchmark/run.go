package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/shard"
)

// Shares of the run length the two timed phases are sized for. The serve
// phase is a fixed number of requests (so the log, and every count taken on
// it, is the same from run to run); the drain phase repeats cold drains
// until its share of the time is spent.
const (
	drainShare = 0.5
	minDrains  = 5
)

type passOpts struct {
	Seed         int64
	Seconds      float64 // run length the phases are sized for
	Nproc        int
	WorkDir      string
	SetupRepeats int
	Rec          *recorder // nil = tracing off
}

// pass is one measurement of one workload: set-up, serve phase, drain
// phase, correctness gate.
type pass struct {
	def   workloadDef
	opts  passOpts
	stack *stack // its root and dirs hold the sealed log once the serve phase is over

	SetupS   float64
	Warm     []sample // the kept stack's warm-up requests
	Serve    driveResult
	Acked    []time.Duration // sorted due→200 latencies, timed requests only
	Late     []time.Duration // sorted generator lateness
	Lags     []time.Duration // sorted seal→verdict lags (live workloads)
	Log      sealedLog
	Drains   []time.Duration // parallel (lanes = nproc) cold drains
	Serial   time.Duration   // one-lane drain (sharded), else the median drain
	Stats    drainResult     // last parallel drain
	Problems []string
	// Attempted and Failed count requests: sent, and not acknowledged or
	// acknowledged but not accepted by the audit.
	Attempted, Failed int
}

func (p *pass) problem(format string, args ...any) {
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

func (p *pass) ackedTotal() int { return p.Attempted - p.Failed }

func (p *pass) serveRPS() float64 {
	return float64(len(p.Acked)) / p.Serve.Elapsed.Seconds()
}

func (p *pass) medianDrain() time.Duration {
	return time.Duration(median(msAll(p.Drains)) * float64(time.Millisecond))
}

func (p *pass) auditRPS() float64 {
	return float64(p.Log.Requests) / p.medianDrain().Seconds()
}

func (p *pass) adviceBytesPerReq() float64 {
	return float64(p.Log.AdviceBytes) / float64(p.Log.Requests)
}

func q(ds []time.Duration, quant float64) float64 { return quantile(msAll(ds), quant) }

// headline returns the named end-to-end metric and whether higher is better.
func (p *pass) headline() (float64, bool) {
	switch p.def.Headline {
	case "serve_rps":
		return p.serveRPS(), true
	case "audit_rps":
		return p.auditRPS(), true
	default:
		return q(p.Acked, 0.5), false
	}
}

// runPass measures one workload once. The sealed log stays on disk under
// p.root for the per-layer measurements; the caller removes opts.WorkDir.
func runPass(def workloadDef, opts passOpts) (*pass, error) {
	p := &pass{def: def, opts: opts}
	client := newClient(def.Conns)
	defer client.CloseIdleConnections()

	// Set-up, several times over so its median is steady: input
	// generation, topology boot, warm-up. The last one is kept.
	var timed [][]byte
	var setups []float64
	for i := 0; i < opts.SetupRepeats; i++ {
		dir := filepath.Join(opts.WorkDir, fmt.Sprintf("%s-%d", def.Name, i))
		start := time.Now()
		inputs := def.Inputs(def.Warmup+def.Requests(opts.Seconds), opts.Seed)
		all, err := bodies(inputs)
		if err != nil {
			return nil, err
		}
		st, err := boot(def, dir, opts.Seed, opts.Nproc, opts.Rec)
		if err != nil {
			return nil, err
		}
		warm := drive(load{URL: st.url, Client: client, Conns: def.Conns, Bodies: all[:def.Warmup]})
		setups = append(setups, time.Since(start).Seconds())
		if i < opts.SetupRepeats-1 {
			p.checkSamples(warm.Samples, nil)
			if err := st.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		// Only the kept stack's warm-up is part of the log that is audited.
		p.stack, timed = st, all[def.Warmup:]
		p.Warm = warm.Samples
		p.Attempted += len(warm.Samples)
		p.Failed += warm.failed()
	}
	p.SetupS = median(setups)

	// Serve phase.
	runtime.GC()
	p.Serve = drive(load{URL: p.stack.url, Client: client, Conns: def.Conns, Rate: def.Rate, Bodies: timed, Rec: opts.Rec})
	p.Attempted += len(p.Serve.Samples)
	p.Failed += p.Serve.failed()
	p.Acked, p.Late = p.Serve.latencies()
	if err := p.stack.close(); err != nil {
		return p, err
	}
	if live := p.stack.live; live != nil {
		p.Lags = sortDur(live.lags)
	}

	// What was acknowledged must be what was sealed.
	var err error
	if p.Log, err = readSealedLog(p.stack.dirs); err != nil {
		return p, err
	}
	p.checkSamples(p.Warm, p.Log.RIDs)
	p.checkSamples(p.Serve.Samples, p.Log.RIDs)
	if p.Log.Requests != p.ackedTotal() {
		p.problem("sealed log holds %d requests, %d were acknowledged", p.Log.Requests, p.ackedTotal())
	}

	// Drain phase: fresh cold auditors over the whole log.
	o := auditOpts{Lanes: opts.Nproc, Workers: opts.Nproc, Memo: def.Memo}
	budget := time.Duration(drainShare * opts.Seconds * float64(time.Second))
	for start := time.Now(); len(p.Drains) < minDrains || time.Since(start) < budget; {
		if opts.Rec != nil {
			o.FS = newTimingFS(opts.Rec)
		}
		runtime.GC()
		res, err := drain(def, p.stack.root, o)
		if err != nil {
			p.Failed += p.Log.Requests - res.Stats.Requests
			return p, err
		}
		p.checkDrain(res)
		p.Drains = append(p.Drains, res.Wall)
		p.Stats = res
	}
	p.Serial = p.medianDrain()
	if def.Shards > 0 {
		o.Lanes, o.FS = 1, nil
		runtime.GC()
		one, err := drain(def, p.stack.root, o)
		if err != nil {
			return p, err
		}
		p.checkDrain(one)
		if one.Stats != p.Stats.Stats {
			p.problem("sharded Stats differ: lanes=1 %+v, lanes=%d %+v", one.Stats, opts.Nproc, p.Stats.Stats)
		}
		p.Serial = one.Wall
	}
	if err := negativeControl(def, p.stack.dirs[0], filepath.Join(opts.WorkDir, "negative"), opts.Seed, opts.Nproc); err != nil {
		p.problem("%v", err)
	}
	return p, nil
}

// checkSamples records every request that was not a 200 and, once the log
// is sealed, every acknowledged RID that is missing from it.
func (p *pass) checkSamples(samples []sample, sealedRIDs map[string]bool) {
	for i, s := range samples {
		if !s.ok() {
			p.problem("request %d: status %d, err %v", i, s.Status, s.Err)
			continue
		}
		if sealedRIDs == nil {
			continue
		}
		shardIndex, _ := strconv.Atoi(s.Shard) // "" (no gateway) is shard 0
		if !sealedRIDs[ridKey(shardIndex, s.RID)] {
			p.problem("acknowledged rid %s (shard %q) is in no sealed epoch", s.RID, s.Shard)
		}
	}
}

func (p *pass) checkDrain(res drainResult) {
	if res.Epochs != p.Log.Epochs || res.Accepted != p.Log.Epochs {
		p.problem("drain graded %d and accepted %d of %d sealed epochs", res.Epochs, res.Accepted, p.Log.Epochs)
	}
	if res.Stats.Requests != p.ackedTotal() {
		p.problem("drain graded %d requests, %d were acknowledged", res.Stats.Requests, p.ackedTotal())
	}
}

// layerMetrics takes the traced pass apart, layer by layer. ref is the
// untraced pass of the same run that the tracing overhead is judged against.
func layerMetrics(traced, ref *pass) (map[string]float64, error) {
	def, rec := traced.def, traced.opts.Rec
	spans := rec.snapshot()
	if err := checkNesting(spans); err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	served := float64(traced.ackedTotal())

	m["driver.late_p99_ms"] = q(ref.Late, 0.99)
	m["driver.samples"] = float64(len(ref.Acked))
	m["driver.ack_p99_ms"] = q(ref.Acked, 0.99)
	m["auditd.verdict_lag_p50_ms"] = q(ref.Lags, 0.5)
	m["driver.fail_share"] = float64(ref.Failed) / float64(ref.Attempted)

	m["gateway.self_ms_p50"] = q(sortDur(selfTimes(spans, spanGateway)), 0.5)
	m["gateway.retries"] = float64(traced.stack.retries())

	// A request's collector time is its handler (or backend round-trip)
	// span minus the part of that interval the epoch log spent in the FS.
	busy := newBusyIndex(spans, spanWrite, spanFsync)
	invoke := spanInvoke
	if def.Shards > 0 {
		invoke = spanRoundTrip
	}
	var collector []time.Duration
	for _, s := range spans {
		if s.Name == invoke {
			collector = append(collector, s.dur()-time.Duration(busy.overlap(s.Start, s.End)))
		}
	}
	m["collectorhttp.invoke_ms_p50"] = q(sortDur(collector), 0.5)
	m["collectorhttp.shed"] = float64(traced.stack.shed())

	fs := traced.stack.fs
	m["epochlog.fsyncs_per_req"] = float64(fs.fsyncs.Load()) / served
	m["epochlog.fsync_ms_p50"] = q(sortDur(durations(spans, spanFsync)), 0.5)
	m["epochlog.bytes_per_req"] = float64(fs.bytesWritten.Load()) / served
	m["epochlog.seal_ms_p50"] = q(sortDur(durations(spans, spanSeal)), 0.5)

	chain, err := auditChain(def, traced.stack.dirs, traced.opts.Nproc, rec)
	if err != nil {
		return nil, err
	}
	if err := checkNesting(rec.snapshot()); err != nil {
		return nil, err
	}
	if chain.Stats.ZeroMemo() != traced.Stats.Stats.ZeroMemo() {
		return nil, fmt.Errorf("audit chain Stats %+v differ from auditd's %+v", chain.Stats, traced.Stats.Stats)
	}
	epochs, reqs := float64(chain.Epochs), float64(chain.Requests)
	m["epochlog.read_ms_per_epoch"] = ms(chain.Read) / epochs
	m["advice.decode_ms_per_epoch"] = ms(chain.Decode) / epochs
	m["advice.decode_allocs_per_req"] = float64(chain.DecodeAllocs) / reqs
	m["advice.encode_ms_per_epoch"] = ms(chain.Encode) / epochs
	m["verifier.audit_ms_per_epoch"] = ms(chain.Audit) / epochs
	m["verifier.allocs_per_req"] = float64(chain.AuditAllocs) / reqs
	m["verifier.handlers_rerun_per_req"] = float64(chain.Stats.HandlersRerun) / reqs
	m["verifier.graph_edges_per_req"] = float64(chain.Stats.GraphEdges) / reqs
	if probes := chain.Stats.MemoHits + chain.Stats.MemoMisses; probes > 0 {
		m["memo.hit_ratio"] = float64(chain.Stats.MemoHits) / float64(probes)
	} else {
		m["memo.hit_ratio"] = 0
	}
	// One-lane drain of this same log minus the chain's three calls: what
	// auditd adds (listing, prefetch hand-off, verdict bookkeeping) less
	// what its prefetch hides, so it can come out below zero.
	m["auditd.self_ms_per_epoch"] = ms(traced.Serial)/epochs - ms(chain.Read+chain.Decode+chain.Audit)/epochs

	// The same log drained with the memo the other way round.
	var other []float64
	for i := 0; i < 2; i++ {
		runtime.GC()
		res, err := drain(def, traced.stack.root, auditOpts{Lanes: traced.opts.Nproc, Workers: traced.opts.Nproc, Memo: !def.Memo})
		if err != nil {
			return nil, err
		}
		if res.Stats.ZeroMemo() != traced.Stats.Stats.ZeroMemo() {
			return nil, fmt.Errorf("memo on/off Stats differ: %+v vs %+v", res.Stats, traced.Stats.Stats)
		}
		other = append(other, ms(res.Wall))
	}
	on, off := ms(ref.medianDrain()), median(other)
	if !def.Memo {
		on, off = off, on
	}
	m["memo.on_off_ratio"] = on / off

	m["shard.lanes_speedup"], m["shard.merge_ms"] = 0, 0
	if def.Shards > 0 {
		m["shard.lanes_speedup"] = ms(ref.Serial) / ms(ref.medianDrain())
		start := time.Now()
		merged := shard.Merge(traced.stack.top.Map, chain.Outcomes)
		m["shard.merge_ms"] = ms(time.Since(start))
		if !merged.Accepted() {
			return nil, fmt.Errorf("shard.Merge of the chain's carries: [%s] %s", merged.Code, merged.Reason)
		}
	}

	exec, ratio, err := serverCost(def, traced.opts.Seed, 2*traced.opts.Seconds)
	if err != nil {
		return nil, err
	}
	m["server.exec_us_per_req"], m["server.advice_overhead_ratio"] = exec, ratio

	untraced, higherBetter := ref.headline()
	with, _ := traced.headline()
	if higherBetter {
		m["trace_overhead_share"] = (untraced - with) / untraced
	} else {
		m["trace_overhead_share"] = (with - untraced) / untraced
	}
	return m, nil
}

// serverCostRate is how many of the workload's inputs, per second of run
// length, the in-process server comparison serves.
const serverCostRate = 50

// serverCost serves the workload's inputs through harness.Serve — the
// server runtime alone, no HTTP, no log — collecting Karousos advice and
// collecting nothing (paper Fig. 6), and returns µs per request with advice
// and the ratio of the two.
func serverCost(def workloadDef, seed int64, seconds float64) (usPerReq, ratio float64, err error) {
	inputs := def.Inputs(int(serverCostRate*seconds), seed)
	reqs := make([]server.Request, len(inputs))
	for i, in := range inputs {
		reqs[i] = server.Request{RID: core.RID(fmt.Sprintf("r%04d", i)), Input: in}
	}
	var with, without []float64
	for i := 0; i < 5; i++ {
		for _, mode := range []harness.Collect{harness.CollectKarousos, harness.CollectNone} {
			runtime.GC()
			res, err := harness.Serve(def.Spec, reqs, def.Conns, seed, mode)
			if err != nil {
				return 0, 0, err
			}
			us := float64(res.Elapsed) / float64(time.Microsecond)
			if mode == harness.CollectKarousos {
				with = append(with, us)
			} else {
				without = append(without, us)
			}
		}
	}
	return median(with) / float64(len(reqs)), median(with) / median(without), nil
}
