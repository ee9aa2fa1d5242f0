package server

import (
	"strings"
	"sync"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// treeApp is a minimal application shaped like Figure 3: the request handler
// writes a shared variable and activates two children; both children read the
// variable and the second also writes it, then responds.
func treeApp() *core.App {
	var x *core.Variable
	app := &core.App{
		Name:         "tree",
		RequestEvent: "request",
	}
	app.Init = func(ctx *core.Context) {
		x = ctx.VarNew("x", ctx.Scalar(0))
		ctx.Register("request", "root")
		ctx.Register("child", "reader")
		ctx.Register("final", "writer")
	}
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"root": func(ctx *core.Context, p *mv.MV) {
			ctx.Write(x, ctx.Apply(func(a []value.V) value.V {
				return appkit.Num(appkit.Field(a[0], "n"))
			}, p))
			ctx.Emit("child", p)
			ctx.Emit("final", p)
		},
		"reader": func(ctx *core.Context, p *mv.MV) {
			_ = ctx.Read(x)
		},
		"writer": func(ctx *core.Context, p *mv.MV) {
			v := ctx.Read(x)
			ctx.Write(x, ctx.Apply(func(a []value.V) value.V {
				return a[0].(float64) + 1
			}, v))
			ctx.Respond(v)
		},
	}
	return app
}

func req(rid string, n int) Request {
	return Request{RID: core.RID(rid), Input: value.Map("n", n)}
}

func serveTree(t *testing.T, reqs []Request, conc int, seed int64) *Result {
	t.Helper()
	srv := New(Config{App: treeApp(), Seed: seed, CollectKarousos: true, CollectOrochi: true})
	res, err := srv.Run(reqs, conc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTraceShape(t *testing.T) {
	res := serveTree(t, []Request{req("r1", 5), req("r2", 7)}, 1, 1)
	if err := res.Trace.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	outs := res.Trace.Outputs()
	if !value.Equal(outs["r1"], float64(5)) {
		t.Errorf("r1 output = %v (writer child reads the root's write)", outs["r1"])
	}
}

func TestOpCountsAndResponseEmittedBy(t *testing.T) {
	res := serveTree(t, []Request{req("r1", 5)}, 1, 1)
	counts := res.Karousos.OpCounts["r1"]
	if len(counts) != 3 {
		t.Fatalf("expected 3 activations, got %d", len(counts))
	}
	root := core.RequestHID("root", "request")
	if counts[root] != 3 { // write + 2 emits
		t.Errorf("root opcount = %d, want 3", counts[root])
	}
	at := res.Karousos.ResponseEmittedBy["r1"]
	if counts[at.HID] != 2 || at.OpNum != 2 {
		t.Errorf("responseEmittedBy = %+v (writer: read+write then respond)", at)
	}
}

// fanApp is exactly the §4.2 discussion example: the request handler writes
// the variable, then activates n read-only children. Every read observes an
// ancestor's write, so no logging is needed no matter how the children are
// reordered.
func fanApp() *core.App {
	var x *core.Variable
	app := &core.App{Name: "fan", RequestEvent: "request"}
	app.Init = func(ctx *core.Context) {
		x = ctx.VarNew("x", ctx.Scalar(0))
		ctx.Register("request", "root")
		ctx.Register("read", "leaf")
	}
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"root": func(ctx *core.Context, p *mv.MV) {
			ctx.Write(x, ctx.Apply(func(a []value.V) value.V {
				return appkit.Num(appkit.Field(a[0], "n"))
			}, p))
			ctx.Emit("read", p)
			ctx.Emit("read", p)
			ctx.Emit("read", p)
			ctx.Respond(ctx.Scalar("ok"))
		},
		"leaf": func(ctx *core.Context, p *mv.MV) {
			_ = ctx.Read(x)
		},
	}
	return app
}

// TestROrderedAccessesNotLogged is the Figure 3/§4.2 discussion: with one
// request, every child read observes the ancestor's write, so Karousos logs
// nothing while Orochi-JS logs every access — regardless of how the three
// sibling readers are scheduled.
func TestROrderedAccessesNotLogged(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		srv := New(Config{App: fanApp(), Seed: seed, CollectKarousos: true, CollectOrochi: true})
		res, err := srv.Run([]Request{req("r1", 5)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Karousos.VarLogs["x"]); n != 0 {
			t.Errorf("seed %d: karousos logged %d entries for a fully R-ordered request, want 0", seed, n)
		}
		// Orochi: the lazily logged init write (the root write's
		// predecessor reference), the root write, and 3 leaf reads.
		if n := len(res.Orochi.VarLogs["x"]); n != 5 {
			t.Errorf("seed %d: orochi logged %d entries, want 5", seed, n)
		}
	}
}

// TestCrossRequestAccessesLogged: with two sequential requests, the second
// request's accesses observe the first request's write — R-concurrent, so
// Karousos must log them (and lazily log the dictating write).
func TestCrossRequestAccessesLogged(t *testing.T) {
	res := serveTree(t, []Request{req("r1", 5), req("r2", 7)}, 1, 1)
	log := res.Karousos.VarLogs["x"]
	if len(log) == 0 {
		t.Fatal("cross-request accesses must be logged")
	}
	// The first logged entry must be a lazily logged write (no predecessor).
	if log[0].Type != advice.AccessWrite || log[0].HasPrec {
		t.Errorf("first entry should be a lazily logged write, got %+v", log[0])
	}
	var reads, writes int
	for _, e := range log {
		switch e.Type {
		case advice.AccessRead:
			reads++
			if !e.HasPrec {
				t.Error("logged read without dictating write")
			}
		case advice.AccessWrite:
			writes++
		}
	}
	if reads == 0 || writes == 0 {
		t.Errorf("expected both reads and writes logged, got %d/%d", reads, writes)
	}
}

func TestKarousosTagsGroupEqualTrees(t *testing.T) {
	res := serveTree(t, []Request{req("r1", 1), req("r2", 2), req("r3", 3)}, 3, 99)
	tags := res.Karousos.Tags
	if tags["r1"] != tags["r2"] || tags["r2"] != tags["r3"] {
		t.Errorf("equal trees should share a tag: %v", tags)
	}
}

// TestOrochiTagsSplitOnSiblingOrder: the two children are unordered, so over
// enough requests the scheduler produces both execution orders; Orochi-JS
// tags must then differ while the Karousos tag stays unique.
func TestOrochiTagsSplitOnSiblingOrder(t *testing.T) {
	var reqs []Request
	for i := 0; i < 24; i++ {
		reqs = append(reqs, req("r"+string(rune('a'+i)), i))
	}
	res := serveTree(t, reqs, 4, 5)
	kar := map[string]bool{}
	oro := map[string]bool{}
	for _, rq := range reqs {
		kar[res.Karousos.Tags[rq.RID]] = true
		oro[res.Orochi.Tags[rq.RID]] = true
	}
	if len(kar) != 1 {
		t.Errorf("karousos tags = %d, want 1 (order-insensitive)", len(kar))
	}
	if len(oro) < 2 {
		t.Errorf("orochi tags = %d, want ≥2 (order-sensitive)", len(oro))
	}
}

func TestDeterministicAdvicePerSeed(t *testing.T) {
	reqs := []Request{req("r1", 1), req("r2", 2), req("r3", 3)}
	a := serveTree(t, reqs, 2, 42)
	b := serveTree(t, reqs, 2, 42)
	if string(a.Karousos.MarshalBinary()) != string(b.Karousos.MarshalBinary()) {
		t.Error("same seed produced different advice")
	}
	c := serveTree(t, reqs, 2, 43)
	_ = c // different seed may or may not differ; only determinism is required
}

// fixture pairs a test application (with a fresh store when it uses one)
// with a request stream.
type fixture struct {
	name string
	new  func() (*core.App, *kvstore.Store)
	reqs []Request
}

// fixtures cover variable logs (tree) and transaction logs (tx) alike.
func fixtures() []fixture {
	return []fixture{
		{"tree", func() (*core.App, *kvstore.Store) { return treeApp(), nil },
			[]Request{req("r1", 1), req("r2", 2), req("r3", 3), req("r4", 4)}},
		{"tx", func() (*core.App, *kvstore.Store) { return txApp(), kvstore.New(kvstore.Serializable) },
			[]Request{{RID: "r1"}, {RID: "r2"}, {RID: "r3"}}},
	}
}

// TestServeOneIsRunAtWindowOne: serving requests one at a time through
// ServeOne and draining is the same execution as Run at concurrency 1 — the
// same trace and byte-identical advice in both dialects.
func TestServeOneIsRunAtWindowOne(t *testing.T) {
	for _, fx := range fixtures() {
		for seed := int64(0); seed < 5; seed++ {
			app, store := fx.new()
			cfg := Config{App: app, Store: store, Seed: seed, CollectKarousos: true, CollectOrochi: true}
			res, err := New(cfg).Run(fx.reqs, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.App, cfg.Store = fx.new()
			srv := New(cfg)
			outs := res.Trace.Outputs()
			for _, r := range fx.reqs {
				out, err := srv.ServeOne(r)
				if err != nil {
					t.Fatal(err)
				}
				if !value.Equal(out, outs[string(r.RID)]) {
					t.Errorf("%s seed %d: ServeOne(%s) = %v, Run responded %v", fx.name, seed, r.RID, out, outs[string(r.RID)])
				}
			}
			kar, oro := srv.DrainAdvice()
			if got, want := srv.TakeTrace().Digest(), res.Trace.Digest(); got != want {
				t.Errorf("%s seed %d: trace differs between ServeOne and Run", fx.name, seed)
			}
			if string(kar.Blob) != string(res.Karousos.MarshalBinary()) {
				t.Errorf("%s seed %d: Karousos advice differs between ServeOne and Run", fx.name, seed)
			}
			if string(oro.Blob) != string(res.Orochi.MarshalBinary()) {
				t.Errorf("%s seed %d: Orochi-JS advice differs between ServeOne and Run", fx.name, seed)
			}
		}
	}
}

// TestServeOneParallelDispatch: ServeOne runs on the one dispatch loop at
// any worker count, so a parallel server serves and drains epochs too.
func TestServeOneParallelDispatch(t *testing.T) {
	srv := New(Config{App: txApp(), Store: kvstore.New(kvstore.Serializable), Seed: 1, Workers: 8, CollectKarousos: true})
	for i := 1; i <= 3; i++ {
		out, err := srv.ServeOne(Request{RID: core.RID("r" + string(rune('0'+i)))})
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(out, float64(i)) {
			t.Errorf("request %d responded %v, want %d (sequential increments)", i, out, i)
		}
	}
	kar, _ := srv.DrainAdvice()
	if len(kar.Advice.TxLogs) != 3 || len(kar.Advice.WriteOrder) != 3 {
		t.Errorf("drained %d tx logs and %d writes, want 3 and 3", len(kar.Advice.TxLogs), len(kar.Advice.WriteOrder))
	}
	if err := srv.TakeTrace().CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	if len(srv.requests) != 0 || len(srv.txs) != 0 {
		t.Errorf("after the drain the server still holds %d requests and %d transactions, want none", len(srv.requests), len(srv.txs))
	}
}

// TestDialectsIndependent: collecting both dialects in one run yields, for
// each, exactly the advice a run collecting it alone does.
func TestDialectsIndependent(t *testing.T) {
	for _, fx := range fixtures() {
		for seed := int64(0); seed < 5; seed++ {
			run := func(kar, oro bool) *Result {
				app, store := fx.new()
				res, err := New(Config{App: app, Store: store, Seed: seed, CollectKarousos: kar, CollectOrochi: oro}).Run(fx.reqs, 2)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			both := run(true, true)
			if string(run(true, false).Karousos.MarshalBinary()) != string(both.Karousos.MarshalBinary()) {
				t.Errorf("%s seed %d: Karousos advice depends on whether Orochi-JS is collected", fx.name, seed)
			}
			if string(run(false, true).Orochi.MarshalBinary()) != string(both.Orochi.MarshalBinary()) {
				t.Errorf("%s seed %d: Orochi-JS advice depends on whether Karousos is collected", fx.name, seed)
			}
		}
	}
}

func TestHandlerLogOrderAndContents(t *testing.T) {
	res := serveTree(t, []Request{req("r1", 5)}, 1, 1)
	log := res.Karousos.HandlerLogs["r1"]
	if len(log) != 2 {
		t.Fatalf("handler log = %d entries, want 2 emits", len(log))
	}
	if log[0].Kind != advice.OpEmit || log[0].Event != "child" {
		t.Errorf("first emit = %+v", log[0])
	}
	if log[1].Kind != advice.OpEmit || log[1].Event != "final" {
		t.Errorf("second emit = %+v", log[1])
	}
	if log[0].OpNum != 2 || log[1].OpNum != 3 {
		t.Errorf("emit op numbers = %d,%d, want 2,3", log[0].OpNum, log[1].OpNum)
	}
}

func TestUnmodifiedServerCollectsNothing(t *testing.T) {
	srv := New(Config{App: treeApp(), Seed: 1})
	res, err := srv.Run([]Request{req("r1", 5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Karousos != nil || res.Orochi != nil {
		t.Error("unmodified server produced advice")
	}
	if len(res.Trace.Events) != 2 {
		t.Error("unmodified server must still produce the trace")
	}
}

func TestConcurrencyWindow(t *testing.T) {
	// With concurrency 1, request r2's REQ event must appear after r1's RESP.
	res := serveTree(t, []Request{req("r1", 1), req("r2", 2)}, 1, 7)
	var order []string
	for _, e := range res.Trace.Events {
		order = append(order, e.Kind.String()+":"+e.RID)
	}
	want := "REQ:r1 RESP:r1 REQ:r2 RESP:r2"
	if strings.Join(order, " ") != want {
		t.Errorf("trace order = %v", order)
	}
}

func TestDuplicateRIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate rid should panic")
		}
	}()
	srv := New(Config{App: treeApp(), Seed: 1})
	_, _ = srv.Run([]Request{req("r1", 1), req("r1", 2)}, 2)
}

func TestZeroConcurrencyRejected(t *testing.T) {
	srv := New(Config{App: treeApp(), Seed: 1})
	if _, err := srv.Run(nil, 0); err == nil {
		t.Error("concurrency 0 accepted")
	}
}

// --- transactional logging ---

// txApp: the request handler starts a transaction, GETs a row, emits a
// continuation that PUTs and commits, then responds. The transaction spans
// two handlers, as §4.4 allows.
func txApp() *core.App {
	app := &core.App{Name: "txapp", RequestEvent: "request"}
	// carriers hands a request's transaction from "start" to "finish".
	// Handlers of different requests run concurrently under parallel
	// dispatch, so the map is guarded.
	var mu sync.Mutex
	carriers := map[core.RID]*core.Tx{}
	app.Init = func(ctx *core.Context) {
		ctx.Register("request", "start")
		ctx.Register("finish", "finish")
	}
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"start": func(ctx *core.Context, p *mv.MV) {
			tx := ctx.TxStart()
			cur, ok := ctx.Get(tx, ctx.Scalar("row"))
			if !ctx.BranchBool("get-ok", ok) {
				ctx.Respond(ctx.Scalar("retry"))
				return
			}
			mu.Lock()
			carriers[ctx.RIDs()[0]] = tx
			mu.Unlock()
			ctx.Emit("finish", cur)
		},
		"finish": func(ctx *core.Context, p *mv.MV) {
			mu.Lock()
			tx := carriers[ctx.RIDs()[0]]
			mu.Unlock()
			n := ctx.Apply(func(a []value.V) value.V {
				return appkit.Num(a[0]) + 1
			}, p)
			if !ctx.BranchBool("put-ok", ctx.Put(tx, ctx.Scalar("row"), n)) {
				ctx.Respond(ctx.Scalar("retry"))
				return
			}
			if !ctx.BranchBool("commit-ok", ctx.Commit(tx)) {
				ctx.Respond(ctx.Scalar("retry"))
				return
			}
			ctx.Respond(n)
		},
	}
	return app
}

func TestTransactionLogging(t *testing.T) {
	store := kvstore.New(kvstore.Serializable)
	srv := New(Config{App: txApp(), Store: store, Seed: 1, CollectKarousos: true})
	res, err := srv.Run([]Request{{RID: "r1", Input: nil}, {RID: "r2", Input: nil}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Karousos.TxLogs) != 2 {
		t.Fatalf("tx logs = %d, want 2", len(res.Karousos.TxLogs))
	}
	// Sequential requests both commit; the write order has both PUTs.
	if len(res.Karousos.WriteOrder) != 2 {
		t.Errorf("write order = %v", res.Karousos.WriteOrder)
	}
	// Second request's GET must read from the first request's PUT.
	var second *advice.TxLog
	for i := range res.Karousos.TxLogs {
		if res.Karousos.TxLogs[i].RID == "r2" {
			second = &res.Karousos.TxLogs[i]
		}
	}
	if second == nil {
		t.Fatal("no tx log for r2")
	}
	var get *advice.TxOp
	for i := range second.Ops {
		if second.Ops[i].Type == core.TxGet {
			get = &second.Ops[i]
		}
	}
	if get == nil || get.ReadFrom == nil || get.ReadFrom.RID != "r1" {
		t.Errorf("r2's GET should read from r1's PUT: %+v", get)
	}
	// Outputs: r1 sees absent row → 1; r2 reads 1 → 2.
	outs := res.Trace.Outputs()
	if !value.Equal(outs["r1"], float64(1)) || !value.Equal(outs["r2"], float64(2)) {
		t.Errorf("outputs = %v", outs)
	}
}

func TestConflictLogsAbort(t *testing.T) {
	// Interleave two requests so both GET the row before either PUTs: the
	// second PUT conflicts with the first's read lock and the transaction
	// aborts, which must be recorded as tx_abort at that op position.
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		store := kvstore.New(kvstore.Serializable)
		srv := New(Config{App: txApp(), Store: store, Seed: seed, CollectKarousos: true})
		res, err := srv.Run([]Request{{RID: "r1"}, {RID: "r2"}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range res.Karousos.TxLogs {
			last := tl.Ops[len(tl.Ops)-1]
			if last.Type == core.TxAbort {
				found = true
				if !value.Equal(res.Trace.Outputs()[string(tl.RID)], "retry") {
					t.Errorf("aborted request should respond retry")
				}
			}
		}
	}
	if !found {
		t.Error("no seed produced a conflict; scheduler interleaving suspect")
	}
}

func TestNondetRecording(t *testing.T) {
	app := &core.App{Name: "nd", RequestEvent: "request"}
	app.Init = func(ctx *core.Context) { ctx.Register("request", "h") }
	calls := 0
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"h": func(ctx *core.Context, p *mv.MV) {
			v := ctx.Nondet("clock", func(rid core.RID) value.V {
				calls++
				return float64(calls * 100)
			})
			ctx.Respond(v)
		},
	}
	srv := New(Config{App: app, Seed: 1, CollectKarousos: true, CollectOrochi: true})
	res, err := srv.Run([]Request{{RID: "r1"}, {RID: "r2"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Karousos.Nondet) != 2 {
		t.Fatalf("nondet entries = %d", len(res.Karousos.Nondet))
	}
	if !value.Equal(res.Trace.Outputs()["r1"], float64(100)) {
		t.Error("nondet result not delivered to the response")
	}
	// The drained blob lays the nondet list out from its segment.
	kar, oro := srv.DrainAdvice()
	for _, d := range []Drained{kar, oro} {
		if len(d.Advice.Nondet) != 2 || string(d.Blob) != string(d.Advice.MarshalBinary()) {
			t.Errorf("%s: drained blob differs from MarshalBinary of its %d nondet entries", d.Advice.Mode, len(d.Advice.Nondet))
		}
	}
}

func TestRequestWithoutResponseFails(t *testing.T) {
	app := &core.App{Name: "mute", RequestEvent: "request"}
	app.Init = func(ctx *core.Context) { ctx.Register("request", "h") }
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"h": func(ctx *core.Context, p *mv.MV) {},
	}
	srv := New(Config{App: app, Seed: 1})
	if _, err := srv.Run([]Request{{RID: "r1"}}, 1); err == nil {
		t.Error("request that never responds should error")
	}
}

func TestRegisterUnregisterDynamics(t *testing.T) {
	// A handler registered mid-request receives subsequent emits; after
	// unregister it does not.
	app := &core.App{Name: "dyn", RequestEvent: "request"}
	app.Init = func(ctx *core.Context) {
		ctx.Register("request", "root")
		ctx.Register("ping", "always")
	}
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"root": func(ctx *core.Context, p *mv.MV) {
			ctx.Register("ping", "dynamic")
			ctx.Emit("ping", ctx.Scalar("first"))
			ctx.Unregister("ping", "dynamic")
			ctx.Emit("ping", ctx.Scalar("second"))
			ctx.Respond(ctx.Scalar("done"))
		},
		"always":  func(ctx *core.Context, p *mv.MV) {},
		"dynamic": func(ctx *core.Context, p *mv.MV) {},
	}
	srv := New(Config{App: app, Seed: 1, CollectKarousos: true})
	res, err := srv.Run([]Request{{RID: "r1"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Karousos.OpCounts["r1"]
	// Activations: root, always×2 (both emits), dynamic×1 (first emit only).
	if len(counts) != 4 {
		t.Errorf("activations = %d, want 4 (%v)", len(counts), counts)
	}
}
