// Forging tests for the four post-re-execution sweeps: the checks that run
// over the merged audit state after every group has replayed. Each forgery
// is built so that no earlier check can see it — the phantom sits where
// replay never looks — and each test pins the code and the exact message at
// every worker count, so the sweep must reject, and reject on the entry it
// names today.
package verifier_test

import (
	"fmt"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
)

// sweepApp's request handler registers a listener nobody emits (op 1),
// writes x (op 2) and responds only when its input asks it to. Op 1 is a
// handler-log op and op 2 a variable op, so a phantom log entry of either
// kind can sit at the other's op number where re-execution never consults
// it.
func sweepApp() *core.App {
	var x *core.Variable
	app := &core.App{Name: "sweeps", RequestEvent: "request"}
	app.Init = func(ctx *core.Context) {
		x = ctx.VarNew("x", ctx.Scalar(0))
		ctx.Register("request", "h")
	}
	app.Funcs = map[core.FunctionID]core.HandlerFunc{
		"h": func(ctx *core.Context, p *mv.MV) {
			ctx.Register("aux", "g")
			ctx.Write(x, ctx.Apply(func(a []value.V) value.V { return appkit.Field(a[0], "n") }, p))
			if ctx.Branch("respond", ctx.Apply(func(a []value.V) value.V {
				return appkit.Field(a[0], "respond") == true
			}, p)) {
				ctx.Respond(ctx.Scalar("ok"))
			}
		},
		"g": func(ctx *core.Context, p *mv.MV) {},
	}
	return app
}

var sweepHID = core.RequestHID("h", "request")

// sweepRun serves r2 and then r1, one at a time, so that trace order is the
// reverse of rid order: a sweep that walked requests in arrival order would
// name r2 where the sorted sweep names r1.
func sweepRun(t testing.TB) (*trace.Trace, *advice.Advice) {
	t.Helper()
	reqs := []server.Request{
		{RID: "r2", Input: value.Map("n", 2.0, "respond", true)},
		{RID: "r1", Input: value.Map("n", 1.0, "respond", true)},
	}
	res, err := server.New(server.Config{App: sweepApp(), Seed: 1, CollectKarousos: true}).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace, res.Karousos
}

// sweepForgery is one lie only a post-re-execution sweep catches.
type sweepForgery struct {
	name  string
	forge func(tr *trace.Trace, adv *advice.Advice) *trace.Trace
	want  string
}

func sweepOp(rid core.RID, num int) core.Op { return core.Op{RID: rid, HID: sweepHID, Num: num} }

// phantomHandlerOp plants a register entry at op 2 of rid's handler log —
// op 2 is the write of x, which replay never checks against the handler log.
func phantomHandlerOp(adv *advice.Advice, rid core.RID) {
	adv.HandlerLogs[rid] = append(adv.HandlerLogs[rid], advice.HandlerOp{
		HID: sweepHID, OpNum: 2, Kind: advice.OpRegister, Events: []core.EventName{"phantom"}, Fn: "g",
	})
}

// phantomVarWrite plants a logged write of x at op 1 of rid's handler — op 1
// is the register, which replay never checks against a variable log.
func phantomVarWrite(adv *advice.Advice, rid core.RID) {
	adv.VarLogs["x"] = append(adv.VarLogs["x"], advice.VarLogEntry{
		Op: sweepOp(rid, 1), Type: advice.AccessWrite, Value: 7.0,
	})
}

func sweepForgeries() []sweepForgery {
	phantomHID := core.ComputeHID("g", "aux", sweepHID, 1)
	return []sweepForgery{
		{
			name: "phantom handler-log entry",
			forge: func(tr *trace.Trace, adv *advice.Advice) *trace.Trace {
				phantomHandlerOp(adv, "r1")
				return tr
			},
			want: fmt.Sprintf("log entry %v was never produced by re-execution", sweepOp("r1", 2)),
		},
		{
			// Planted in r2 first; the rejection names the least in (rid,
			// hid, num) order.
			name: "phantom handler-log entries in two requests",
			forge: func(tr *trace.Trace, adv *advice.Advice) *trace.Trace {
				phantomHandlerOp(adv, "r2")
				phantomHandlerOp(adv, "r1")
				return tr
			},
			want: fmt.Sprintf("log entry %v was never produced by re-execution", sweepOp("r1", 2)),
		},
		{
			name: "phantom variable-log write",
			forge: func(tr *trace.Trace, adv *advice.Advice) *trace.Trace {
				phantomVarWrite(adv, "r1")
				return tr
			},
			want: fmt.Sprintf("variable log entry %v of x was never produced by re-execution", sweepOp("r1", 1)),
		},
		{
			name: "phantom variable-log writes in two requests",
			forge: func(tr *trace.Trace, adv *advice.Advice) *trace.Trace {
				phantomVarWrite(adv, "r2")
				phantomVarWrite(adv, "r1")
				return tr
			},
			want: fmt.Sprintf("variable log entry %v of x was never produced by re-execution", sweepOp("r1", 1)),
		},
		{
			// An activation nobody activates: advised with zero operations,
			// so the layout and every log check accept it.
			name: "phantom advised handlers in two requests",
			forge: func(tr *trace.Trace, adv *advice.Advice) *trace.Trace {
				adv.OpCounts["r2"][phantomHID] = 0
				adv.OpCounts["r1"][phantomHID] = 0
				return tr
			},
			want: fmt.Sprintf("advised handler (r1,%s) was never re-executed", phantomHID),
		},
		{
			// The server answered a request the program does not answer:
			// the trace shows r1 asking for no response and getting one.
			// r1 gets a tag of its own, or its group's branch check would
			// see it diverge from r2 first.
			name: "response the program never produces",
			forge: func(tr *trace.Trace, adv *advice.Advice) *trace.Trace {
				out := &trace.Trace{Events: append([]trace.Event(nil), tr.Events...)}
				for i, e := range out.Events {
					if e.Kind == trace.Req && e.RID == "r1" {
						out.Events[i].Data = value.Map("n", 1.0, "respond", false)
					}
				}
				adv.Tags["r1"] = "forged"
				return out
			},
			want: "re-execution produced no response for r1",
		},
	}
}

func TestPostReExecutionSweeps(t *testing.T) {
	tr, honest := sweepRun(t)
	for _, workers := range []int{1, 4} {
		cfg := verifier.Config{App: sweepApp(), Mode: advice.ModeKarousos, Workers: workers}
		if _, err := verifier.Audit(cfg, tr, honest); err != nil {
			t.Fatalf("workers=%d: honest run rejected: %v", workers, err)
		}
	}
	for _, f := range sweepForgeries() {
		t.Run(f.name, func(t *testing.T) {
			adv := honest.Clone()
			ftr := f.forge(tr, adv)
			for _, workers := range []int{1, 4} {
				cfg := verifier.Config{App: sweepApp(), Mode: advice.ModeKarousos, Workers: workers}
				_, err := verifier.Audit(cfg, ftr, adv)
				rej, ok := err.(core.Reject)
				if !ok || rej.Code != core.RejectLogMismatch || rej.Reason != f.want {
					t.Errorf("workers=%d: got %v\nwant LogMismatch %q", workers, err, f.want)
				}
			}
		})
	}
}
