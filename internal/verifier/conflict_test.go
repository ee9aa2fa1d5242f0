// The two cross-group conflict checks — two writes overwriting one version,
// two initial writes of one variable — exist once, in apply. These tests
// reach them through each route into apply: the immediate engine, the
// buffered merge, and the memo replay of a cached group.
package verifier

import (
	"context"
	"fmt"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier/memo"
)

// twoShapeApp has two request shapes — hence two tag groups — that both
// blind-write the one variable x.
func twoShapeApp() *core.App {
	var x *core.Variable
	app := &core.App{Name: "two-shape", RequestEvent: "request"}
	app.Init = func(ctx *core.Context) {
		x = ctx.VarNew("x", ctx.Scalar("init"))
		ctx.Register("request", "h")
	}
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"h": func(ctx *core.Context, p *mv.MV) {
			isA := ctx.Branch("kind-a", ctx.Apply(func(a []value.V) value.V {
				return appkit.Str(appkit.Field(a[0], "kind")) == "a"
			}, p))
			if isA {
				ctx.Write(x, ctx.Scalar("A"))
				ctx.Respond(ctx.Scalar("a-ok"))
			} else {
				ctx.Write(x, ctx.Scalar("B"))
				ctx.Respond(ctx.Scalar("b-ok"))
			}
		},
	}
	return app
}

func serveTwoShape(t *testing.T, reqs ...server.Request) *server.Result {
	t.Helper()
	res, err := server.New(server.Config{App: twoShapeApp(), Seed: 1, CollectKarousos: true}).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// auditForged is auditFull with a seam after preprocess, where a test can
// put the verifier into a state no advice can produce.
func auditForged(workers int, cache *memo.Cache, res *server.Result, adv *advice.Advice, forgeState func(*Verifier)) (v *Verifier, err error) {
	v = New(Config{App: twoShapeApp(), Mode: advice.ModeKarousos, Workers: workers, Memo: cache})
	v.ctx, v.tr, v.adv = context.Background(), res.Trace, adv
	defer func() {
		if r := recover(); r != nil {
			err = *asReject(r)
		}
	}()
	v.preprocess()
	if forgeState != nil {
		forgeState(v)
	}
	v.reExec()
	v.postprocess()
	v.memoPublish()
	return v, nil
}

func TestCrossGroupConflicts(t *testing.T) {
	reqA := server.Request{RID: "r1", Input: value.Map("kind", "a")}
	reqB := server.Request{RID: "r2", Input: value.Map("kind", "b")}
	honest := serveTwoShape(t, reqA, reqB)
	hv, err := auditForged(1, nil, honest, honest.Karousos, nil)
	if err != nil {
		t.Fatalf("honest run rejected: %v", err)
	}
	initOp := *hv.vars["x"].initial
	hid := core.RequestHID("h", "request")
	w1, w2 := core.Op{RID: "r1", HID: hid, Num: 1}, core.Op{RID: "r2", HID: hid, Num: 1}

	// r2's log entry for its write of x; honestly it names r1's write as the
	// version it overwrites.
	r2Write := func(adv *advice.Advice) int {
		for i, e := range adv.VarLogs["x"] {
			if e.Op.RID == "r2" {
				return i
			}
		}
		t.Fatal("r2's write of x is not logged")
		return -1
	}
	// eraseInitializer forgets that init wrote x, so the first write the
	// dictionary climb finds nothing before becomes the initializer. Advice
	// cannot do this — init replay is the verifier's own — which is why the
	// two-initializers check needs the seam.
	eraseInitializer := func(v *Verifier) {
		vv := v.vars["x"]
		vv.initial = nil
		delete(vv.dict, dkey{rid: core.InitRID, hid: core.InitHID})
	}

	for _, tc := range []struct {
		name        string
		forgeAdvice func(adv *advice.Advice)
		forgeState  func(*Verifier)
		// prime is the honest run whose accepted audit (under forgeState)
		// warms the cache with the conflicting group's effects.
		prime    *server.Result
		warmHits int
		want     string
	}{
		{
			// r2's write claims to overwrite what r1's write overwrote. The
			// memo key does not cover a logged write's predecessor identity
			// (replay re-reads it from the new log), so both groups hit.
			name: "two writes claim one predecessor",
			forgeAdvice: func(adv *advice.Advice) {
				adv.VarLogs["x"][r2Write(adv)].Prec = initOp
			},
			prime:    honest,
			warmHits: 2,
			want:     fmt.Sprintf("writes %v and %v both overwrite %v of variable x", w1, w2, initOp),
		},
		{
			// r2's write goes unlogged, and with init's write erased neither
			// group's climb finds a predecessor. r2's group is primed by a
			// run of r2's shape alone, whose single initializer is accepted.
			name: "two initial writes",
			forgeAdvice: func(adv *advice.Advice) {
				i := r2Write(adv)
				adv.VarLogs["x"] = append(adv.VarLogs["x"][:i:i], adv.VarLogs["x"][i+1:]...)
			},
			forgeState: eraseInitializer,
			prime:      serveTwoShape(t, reqB),
			warmHits:   1,
			want:       fmt.Sprintf("variable x has two initial writes (%v and %v)", w1, w2),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := honest.Karousos.Clone()
			tc.forgeAdvice(forged)

			warm := memo.NewCache(0)
			if _, err := auditForged(4, warm, tc.prime, tc.prime.Karousos, tc.forgeState); err != nil {
				t.Fatalf("priming audit rejected: %v", err)
			}
			for _, route := range []struct {
				name    string
				workers int
				cache   *memo.Cache
			}{
				{"workers=1", 1, nil},
				{"workers=4", 4, nil},
				{"memo cold", 1, memo.NewCache(0)},
				{"memo warm", 4, warm},
			} {
				v, err := auditForged(route.workers, route.cache, honest, forged, tc.forgeState)
				rej, ok := err.(core.Reject)
				if !ok || rej.Code != core.RejectLogMismatch || rej.Reason != tc.want {
					t.Errorf("%s: got %v\nwant LogMismatch %q", route.name, err, tc.want)
				}
				if route.cache == warm && (v.Stats.MemoHits != tc.warmHits || v.Stats.MemoHits+v.Stats.MemoMisses != 2) {
					t.Errorf("%s: %d hits, %d misses; want %d of 2 groups replayed from the cache",
						route.name, v.Stats.MemoHits, v.Stats.MemoMisses, tc.warmHits)
				}
			}
		})
	}
}
