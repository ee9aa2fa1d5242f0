// Memo-cache soundness tests (DESIGN.md §18). Three properties:
//
//  1. Transparency: memo on/off is observationally equivalent — verdicts,
//     reject codes, and every non-memo Stats field are bit-identical across
//     honest runs, tampered traces, and fault-injected advice, at every
//     worker count. Cross-memo comparisons normalize the memo counters
//     (Stats.ZeroMemo); at a fixed memo setting the counters themselves are
//     worker-count invariant.
//  2. Warm behavior: re-auditing an identical epoch against a warm cache
//     hits on every group and still accepts with identical Stats.
//  3. Poisoning resistance: advice tampered after the cache was warmed must
//     miss the warm entries (the key covers the tampered material) and be
//     rejected exactly as a cold audit rejects it.
package verifier_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
	"karousos.dev/karousos/internal/workload"
)

const memoTestBytes = 64 << 20

// memoVerdictKey is verdictKey with the memo counters normalized away, for
// comparisons that cross memo settings.
func memoVerdictKey(vr *harness.VerifyResult) string {
	vr2 := *vr
	vr2.Stats = vr.Stats.ZeroMemo()
	return verdictKey(&vr2)
}

// requireMemoTransparent audits (tr, adv) cold, then at every worker level
// with and without a fresh memo cache, and requires one normalized verdict.
func requireMemoTransparent(t *testing.T, spec harness.AppSpec, tr *trace.Trace, adv *advice.Advice) {
	t.Helper()
	want := memoVerdictKey(harness.VerifyWith(spec, tr, adv, harness.VerifyOptions{Workers: 1, Limits: verifier.DefaultLimits()}))
	for _, w := range workerLevels() {
		for _, withMemo := range []bool{false, true} {
			opt := harness.VerifyOptions{Workers: w, Limits: verifier.DefaultLimits()}
			if withMemo {
				opt.Memo = memo.NewCache(memoTestBytes)
			}
			got := memoVerdictKey(harness.VerifyWith(spec, tr, adv, opt))
			if got != want {
				t.Errorf("workers=%d memo=%v verdict diverged:\n  reference: %s\n  got:       %s", w, withMemo, want, got)
			}
		}
	}
}

func TestMemoDifferentialHonest(t *testing.T) {
	for _, app := range diffApps() {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s-seed%d", app.name, seed), func(t *testing.T) {
				run, err := harness.Serve(app.spec, app.reqs(60, seed), 10, seed, harness.CollectKarousos)
				if err != nil {
					t.Fatal(err)
				}
				requireMemoTransparent(t, app.spec, run.Trace, run.Karousos)
			})
		}
	}
}

func TestMemoDifferentialTamperedTrace(t *testing.T) {
	for _, app := range diffApps() {
		t.Run(app.name, func(t *testing.T) {
			run, err := harness.Serve(app.spec, app.reqs(60, 3), 10, 3, harness.CollectKarousos)
			if err != nil {
				t.Fatal(err)
			}
			tampered := &trace.Trace{Events: append([]trace.Event(nil), run.Trace.Events...)}
			for i := range tampered.Events {
				if tampered.Events[i].Kind == trace.Resp {
					tampered.Events[i].Data = map[string]any{"status": "tampered"}
					break
				}
			}
			requireMemoTransparent(t, app.spec, tampered, run.Karousos)
		})
	}
}

func TestMemoDifferentialFaultInjectedAdvice(t *testing.T) {
	run, err := harness.Serve(harness.WikiApp(), workload.Wiki(60, 5), 10, 5, harness.CollectKarousos)
	if err != nil {
		t.Fatal(err)
	}
	wire := run.Karousos.MarshalBinary()
	ops := []string{
		"bit-flip", "splice", "opcount-inflate", "index-skew",
		"cycle-write-chain", "cycle-write-order", "dup-log-entry", "drop-log-entry",
	}
	for _, name := range ops {
		op, ok := faultinject.Lookup(name)
		if !ok {
			t.Fatalf("no fault operator %q", name)
		}
		for _, seed := range []int64{2, 9} {
			t.Run(fmt.Sprintf("%s-seed%d", name, seed), func(t *testing.T) {
				mut, err := op.Apply(seed, wire)
				if err != nil {
					t.Skipf("operator found no site: %v", err)
				}
				adv, err := advice.UnmarshalBinary(mut)
				if err != nil {
					t.Skipf("corrupted advice does not decode: %v", err)
				}
				requireMemoTransparent(t, harness.WikiApp(), run.Trace, adv)
			})
		}
	}
}

// TestMemoWarmHitsEveryGroup is the cross-epoch warm scenario in miniature:
// the same epoch audited twice through one cache. The second pass must hit
// on every group, accept, and report Stats identical to the cold pass
// modulo the hit/miss counters.
func TestMemoWarmHitsEveryGroup(t *testing.T) {
	for _, app := range diffApps() {
		t.Run(app.name, func(t *testing.T) {
			run, err := harness.Serve(app.spec, app.reqs(60, 1), 10, 1, harness.CollectKarousos)
			if err != nil {
				t.Fatal(err)
			}
			cache := memo.NewCache(memoTestBytes)
			opt := harness.VerifyOptions{Workers: 1, Limits: verifier.DefaultLimits(), Memo: cache}
			cold := harness.VerifyWith(app.spec, run.Trace, run.Karousos, opt)
			if cold.Err != nil {
				t.Fatalf("cold audit rejected an honest run: %v", cold.Err)
			}
			if cold.Stats.MemoHits != 0 || cold.Stats.MemoMisses != cold.Stats.Groups {
				t.Fatalf("cold pass: hits=%d misses=%d groups=%d", cold.Stats.MemoHits, cold.Stats.MemoMisses, cold.Stats.Groups)
			}
			if cache.Len() == 0 {
				t.Fatal("accepting cold audit published no cache entries")
			}
			warm := harness.VerifyWith(app.spec, run.Trace, run.Karousos, opt)
			if warm.Err != nil {
				t.Fatalf("warm audit rejected: %v", warm.Err)
			}
			if warm.Stats.MemoHits != warm.Stats.Groups || warm.Stats.MemoMisses != 0 {
				t.Fatalf("warm pass: hits=%d misses=%d groups=%d", warm.Stats.MemoHits, warm.Stats.MemoMisses, warm.Stats.Groups)
			}
			if got, want := fmt.Sprintf("%+v", warm.Stats.ZeroMemo()), fmt.Sprintf("%+v", cold.Stats.ZeroMemo()); got != want {
				t.Fatalf("warm Stats diverged from cold:\n  cold: %s\n  warm: %s", want, got)
			}
			// Warm hits must also be worker-count invariant.
			for _, w := range workerLevels()[1:] {
				wopt := opt
				wopt.Workers = w
				again := harness.VerifyWith(app.spec, run.Trace, run.Karousos, wopt)
				if again.Err != nil || again.Stats.MemoHits != warm.Stats.MemoHits {
					t.Fatalf("workers=%d warm pass: err=%v hits=%d want %d", w, again.Err, again.Stats.MemoHits, warm.Stats.MemoHits)
				}
			}
		})
	}
}

// TestMemoCachePoisoning is the attack the key closure exists to stop: warm
// the cache with an honest epoch, then tamper the advice — every mutation
// that changes observable replay behavior must miss the warm entries and
// reject with exactly the cold rejection. A poisoned-entry bypass would
// show up here as a warm ACCEPT of advice the cold audit rejects.
func TestMemoCachePoisoning(t *testing.T) {
	spec := harness.MOTDApp()
	run, err := harness.Serve(spec, workload.MOTD(60, workload.WriteHeavy, 1), 10, 1, harness.CollectKarousos)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(adv *advice.Advice) bool
	}{
		{"flip-var-log-value", func(adv *advice.Advice) bool {
			for _, entries := range adv.VarLogs {
				for i := range entries {
					if entries[i].Type == advice.AccessWrite {
						entries[i].Value = value.Normalize(map[string]any{"poison": true})
						return true
					}
				}
			}
			return false
		}},
		{"inflate-opcount", func(adv *advice.Advice) bool {
			for rid, counts := range adv.OpCounts {
				for hid := range counts {
					adv.OpCounts[rid][hid]++
					return true
				}
			}
			return false
		}},
		{"swap-response-point", func(adv *advice.Advice) bool {
			for rid, at := range adv.ResponseEmittedBy {
				at.OpNum++
				adv.ResponseEmittedBy[rid] = at
				return true
			}
			return false
		}},
		// A logged write read as a predecessor by a request of an EARLIER tag
		// group: that group's key sees the write only through the
		// predecessor digest, and it merges (and rejects cold) before the
		// writer's own group does.
		{"flip-predecessor-of-other-group", func(adv *advice.Advice) bool {
			pos := make(map[string]int) // tag → canonical group position
			for _, rid := range run.Trace.RIDs() {
				if tag := adv.Tags[core.RID(rid)]; pos[tag] == 0 {
					pos[tag] = len(pos) + 1
				}
			}
			for _, id := range sortedVarIDs(adv.VarLogs) {
				entries := adv.VarLogs[id]
				for _, r := range entries {
					if r.Type != advice.AccessRead || !r.HasPrec || r.Prec.RID == core.InitRID {
						continue
					}
					for j := range entries {
						w := &entries[j]
						if w.Op == r.Prec && w.Type == advice.AccessWrite && pos[adv.Tags[r.Op.RID]] < pos[adv.Tags[w.Op.RID]] {
							w.Value = value.Normalize(map[string]any{"poison": true})
							return true
						}
					}
				}
			}
			return false
		}},
	}
	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			cache := memo.NewCache(memoTestBytes)
			opt := harness.VerifyOptions{Workers: 1, Limits: verifier.DefaultLimits(), Memo: cache}
			if vr := harness.VerifyWith(spec, run.Trace, run.Karousos, opt); vr.Err != nil {
				t.Fatalf("honest warmup rejected: %v", vr.Err)
			}
			tampered := run.Karousos.Clone()
			if !mut.mutate(tampered) {
				t.Skip("mutation found no site")
			}
			coldOpt := harness.VerifyOptions{Workers: 1, Limits: verifier.DefaultLimits()}
			cold := harness.VerifyWith(spec, run.Trace, tampered, coldOpt)
			if cold.Err == nil {
				t.Fatal("cold audit accepted the tampered advice; mutation is not a usable probe")
			}
			warm := harness.VerifyWith(spec, run.Trace, tampered, opt)
			if warm.Err == nil {
				t.Fatal("POISONED: warm cache accepted advice the cold audit rejects")
			}
			if got, want := memoVerdictKey(warm), memoVerdictKey(cold); got != want {
				t.Fatalf("warm rejection differs from cold:\n  cold: %s\n  warm: %s", want, got)
			}
		})
	}
	t.Run("flip-carried-predecessor", testMemoPoisonCarriedPredecessor)
}

// testMemoPoisonCarriedPredecessor flips the contents of a carried
// prior-epoch store write that an epoch-2 GET is dictated by. A carried
// write is not advice and not part of the audit-level prefix, so the key
// reaches it only through the lazily digested resolved predecessor.
func testMemoPoisonCarriedPredecessor(t *testing.T) {
	spec := harness.WikiApp()
	reqs := workload.Wiki(60, 4)
	eps := serveEpochs(t, spec, [][]server.Request{reqs[:30], reqs[30:]})
	audit := func(carry *verifier.CarryState, ep epoch, cache *memo.Cache) (verifier.Stats, *verifier.CarryState, error) {
		app, _ := spec.New()
		cfg := verifier.Config{
			App: app, Mode: advice.ModeKarousos, Isolation: spec.Isolation,
			Limits: verifier.DefaultLimits(), Workers: 1, Carry: carry, Memo: cache,
		}
		return verifier.AuditCarry(context.Background(), cfg, ep.tr, ep.kar)
	}
	_, carry, err := audit(nil, eps[0], nil)
	if err != nil {
		t.Fatalf("epoch 1 rejected: %v", err)
	}
	cache := memo.NewCache(memoTestBytes)
	if _, _, err := audit(carry, eps[1], cache); err != nil {
		t.Fatalf("honest epoch 2 warmup rejected: %v", err)
	}

	// The first epoch-2 GET dictated by a carried write, in log order.
	var key string
find:
	for _, tl := range eps[1].kar.TxLogs {
		for _, op := range tl.Ops {
			for k, cw := range carry.Store {
				if op.ReadFrom != nil && cw.Pos == *op.ReadFrom {
					key = k
					break find
				}
			}
		}
	}
	if key == "" {
		t.Fatal("no epoch-2 read is dictated by a carried write")
	}
	tampered := &verifier.CarryState{Vars: carry.Vars, Store: make(map[string]verifier.CarriedWrite, len(carry.Store))}
	for k, cw := range carry.Store {
		tampered.Store[k] = cw
	}
	cw := tampered.Store[key]
	cw.Contents = value.Normalize(map[string]any{"poison": true})
	tampered.Store[key] = cw

	coldSt, _, coldErr := audit(tampered, eps[1], nil)
	if coldErr == nil {
		t.Fatal("cold audit accepted the flipped carried write; mutation is not a usable probe")
	}
	warmSt, _, warmErr := audit(tampered, eps[1], cache)
	if warmErr == nil {
		t.Fatal("POISONED: warm cache accepted a carry the cold audit rejects")
	}
	if warmSt.MemoMisses == 0 {
		t.Error("the flipped carried write missed no warm entry")
	}
	if got, want := fmt.Sprintf("%v | %+v", warmErr, warmSt.ZeroMemo()), fmt.Sprintf("%v | %+v", coldErr, coldSt.ZeroMemo()); got != want {
		t.Fatalf("warm rejection differs from cold:\n  cold: %s\n  warm: %s", want, got)
	}
}

// memoAudit audits one epoch of app through cache at one worker, handing
// the verifier adv as it is, decoded or in memory.
func memoAudit(app diffApp, tr *trace.Trace, adv *advice.Advice, cache *memo.Cache) (verifier.Stats, error) {
	a, _ := app.spec.New()
	return verifier.Audit(verifier.Config{
		App: a, Mode: advice.ModeKarousos, Isolation: app.spec.Isolation,
		Limits: verifier.DefaultLimits(), Workers: 1, Memo: cache,
	}, tr, adv)
}

// TestMemoReplacedValueNeverKeysStale: the memo keys a logged value on the
// value the entry holds at the audit, never on what it held when decoded.
// The cache is warmed with an honest epoch decoded from its blob, and the
// same blob is decoded again, so that every group would hit; then one
// logged value is replaced in memory. Keyed on the decoded value, the
// replaced value's group would hit the warm entry; keyed on the value
// itself it misses, and is re-executed or the audit rejects. An equal copy
// put in place of the value — a new container, sharing nothing with the
// decoded one — digests identically and still hits.
func TestMemoReplacedValueNeverKeysStale(t *testing.T) {
	sites := []struct {
		name    string
		replace func(adv *advice.Advice, with func(value.V) value.V) bool
	}{
		{"var-log-value", func(adv *advice.Advice, with func(value.V) value.V) bool {
			for _, id := range sortedVarIDs(adv.VarLogs) {
				entries := adv.VarLogs[id]
				for i := range entries {
					if entries[i].Type == advice.AccessWrite {
						entries[i].Value = with(entries[i].Value)
						return true
					}
				}
			}
			return false
		}},
		{"tx-op-contents", func(adv *advice.Advice, with func(value.V) value.V) bool {
			for i := range adv.TxLogs {
				ops := adv.TxLogs[i].Ops
				for j := range ops {
					if ops[j].Type == core.TxPut {
						ops[j].Contents = with(ops[j].Contents)
						return true
					}
				}
			}
			return false
		}},
	}
	poison := func(value.V) value.V { return value.Normalize(map[string]any{"poison": true}) }
	for _, app := range diffApps() {
		run, err := harness.Serve(app.spec, app.reqs(60, 1), 10, 1, harness.CollectKarousos)
		if err != nil {
			t.Fatal(err)
		}
		blob := run.Karousos.MarshalBinary()
		decode := func(t *testing.T) *advice.Advice {
			adv, err := advice.UnmarshalBinary(blob)
			if err != nil {
				t.Fatal(err)
			}
			return adv
		}
		for _, site := range sites {
			t.Run(app.name+"/"+site.name, func(t *testing.T) {
				if !site.replace(decode(t), value.Clone) {
					t.Skip("the epoch logs no such value")
				}
				cache := memo.NewCache(memoTestBytes)
				cold, err := memoAudit(app, run.Trace, decode(t), cache)
				if err != nil {
					t.Fatalf("honest warmup rejected: %v", err)
				}
				copied := decode(t)
				site.replace(copied, value.Clone)
				if st, err := memoAudit(app, run.Trace, copied, cache); err != nil || st.MemoHits != cold.Groups {
					t.Fatalf("an equal copy of a logged value: hits=%d of %d groups, err %v; want every group hit", st.MemoHits, cold.Groups, err)
				}
				replaced := decode(t)
				site.replace(replaced, poison)
				if st, err := memoAudit(app, run.Trace, replaced, cache); st.MemoHits >= cold.Groups {
					t.Fatalf("STALE: a replaced logged value was keyed on its decoded value: hits=%d of %d groups (err %v)", st.MemoHits, cold.Groups, err)
				}
			})
		}
	}
}

// TestMemoDecodedKeysMatchInMemoryKeys: a logged value digests the same
// decoded as in memory, though decoding shares every container a variable
// log back-references where the server's values may share less or more.
// Each epoch is audited twice through one cache: first as the in-memory
// advice the server collected, then decoded from its blob. The decoded pass
// hits every group, and its Stats are otherwise identical.
func TestMemoDecodedKeysMatchInMemoryKeys(t *testing.T) {
	for _, app := range diffApps() {
		t.Run(app.name, func(t *testing.T) {
			run, err := harness.Serve(app.spec, app.reqs(60, 1), 10, 1, harness.CollectKarousos)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := advice.UnmarshalBinary(run.Karousos.MarshalBinary())
			if err != nil {
				t.Fatal(err)
			}
			cache := memo.NewCache(memoTestBytes)
			mem, err := memoAudit(app, run.Trace, run.Karousos, cache)
			if err != nil {
				t.Fatalf("in-memory advice rejected: %v", err)
			}
			dec, err := memoAudit(app, run.Trace, decoded, cache)
			if err != nil {
				t.Fatalf("decoded advice rejected: %v", err)
			}
			if dec.MemoHits != dec.Groups || dec.MemoMisses != 0 {
				t.Fatalf("decoded pass: hits=%d misses=%d groups=%d; decoded keys differ from in-memory keys", dec.MemoHits, dec.MemoMisses, dec.Groups)
			}
			if got, want := fmt.Sprintf("%+v", dec.ZeroMemo()), fmt.Sprintf("%+v", mem.ZeroMemo()); got != want {
				t.Fatalf("decoded Stats diverged from in-memory:\n  in-memory: %s\n  decoded:   %s", want, got)
			}
		})
	}
}

func sortedVarIDs(m map[core.VarID][]advice.VarLogEntry) []core.VarID {
	ids := make([]core.VarID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestMemoEvictionBounded checks the byte budget holds across audits and
// evictions are reported through Stats. The budget is derived from a
// measuring pass so the test does not depend on absolute entry sizes.
func TestMemoEvictionBounded(t *testing.T) {
	spec := harness.MOTDApp()
	var runs []*harness.ServeResult
	for seed := int64(1); seed <= 3; seed++ {
		run, err := harness.Serve(spec, workload.MOTD(40, workload.WriteHeavy, seed), 10, seed, harness.CollectKarousos)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	// Measure the full footprint of three distinct epochs, unbounded.
	big := memo.NewCache(0)
	for _, run := range runs {
		if vr := harness.VerifyWith(spec, run.Trace, run.Karousos, harness.VerifyOptions{Workers: 1, Limits: verifier.DefaultLimits(), Memo: big}); vr.Err != nil {
			t.Fatalf("measuring audit rejected: %v", vr.Err)
		}
	}
	if big.Bytes() == 0 {
		t.Fatal("measuring pass published no bytes")
	}
	// Re-audit into a cache half that size: the budget must hold and the
	// overflow must surface as Stats.MemoEvictions.
	budget := big.Bytes() / 2
	lim := verifier.DefaultLimits()
	lim.MaxMemoEntryBytes = budget // only the byte budget should churn entries
	small := memo.NewCache(budget)
	var evictions int
	for _, run := range runs {
		vr := harness.VerifyWith(spec, run.Trace, run.Karousos, harness.VerifyOptions{Workers: 1, Limits: lim, Memo: small})
		if vr.Err != nil {
			t.Fatalf("bounded audit rejected: %v", vr.Err)
		}
		evictions += vr.Stats.MemoEvictions
		if small.Bytes() > budget {
			t.Fatalf("cache exceeded its budget: %d > %d bytes", small.Bytes(), budget)
		}
	}
	if evictions == 0 {
		t.Fatal("half-sized cache reported no evictions; size accounting is off")
	}
}

// TestMemoChargePinned pins what an accepted audit charges the memo cache:
// each entry costs a fixed header per intent plus the EncodedLen of every
// value the group wrote. The figures were recorded before the charge moved
// from the coordinator onto the group workers, so they hold that move to
// exactly the old sum, at one worker and at four.
func TestMemoChargePinned(t *testing.T) {
	for _, tc := range []struct {
		app   diffApp
		bytes int
		stats verifier.Stats
	}{
		{diffApps()[0], 431692, verifier.Stats{Groups: 3, Requests: 120, GraphNodes: 832, GraphEdges: 1411, HandlersRerun: 3, MemoMisses: 3}},
		{diffApps()[2], 595698, verifier.Stats{Groups: 6, Requests: 120, GraphNodes: 3514, GraphEdges: 6199, HandlersRerun: 18, MemoMisses: 6}},
	} {
		run, err := harness.Serve(tc.app.spec, tc.app.reqs(120, 4), 10, 4, harness.CollectKarousos)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			cache := memo.NewCache(memoTestBytes)
			vr := harness.VerifyWith(tc.app.spec, run.Trace, run.Karousos, harness.VerifyOptions{Workers: w, Limits: verifier.DefaultLimits(), Memo: cache})
			if vr.Err != nil {
				t.Fatalf("%s workers=%d: honest run rejected: %v", tc.app.name, w, vr.Err)
			}
			if got := cache.Bytes(); got != tc.bytes || vr.Stats != tc.stats {
				t.Errorf("%s workers=%d: cache holds %d bytes, stats %+v; want %d bytes, stats %+v", tc.app.name, w, got, vr.Stats, tc.bytes, tc.stats)
			}
		}
	}
}
