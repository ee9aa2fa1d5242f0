// Package motd is the paper's "message of the day" model application (§6):
// users get or set a message of the day, where a set is either for every day
// or for one particular day. Messages and metadata live in a local hashmap —
// a single loggable variable — rather than in the transactional store.
//
// The application is deliberately pathological for Karousos: every request is
// handled by one request handler, so all handler activations are children of
// I and all hashmap accesses are R-concurrent with each other (§6.2). Every
// access is therefore logged, Karousos's grouping degenerates to Orochi's,
// and the variable log dominates the advice — exactly the behavior Figures
// 6–10 report.
package motd

import (
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// FnRequest is the single request handler.
const FnRequest core.FunctionID = "motd.request"

// RequestEvent is the event the runtime emits per incoming request.
const RequestEvent core.EventName = "request"

// routeWork is the simulated cost of parsing and routing one request. Its
// operands are group-uniform, so grouped re-execution pays it once per group
// — which is why the Karousos verifier wins on read-heavy MOTD workloads and
// loses on write-heavy ones, where per-write dictionary and log maintenance
// dominates (§6.2).
const routeWork = 10000

// historyCap bounds the set-history kept inside the MOTD state. Every write
// logs the full state value (all accesses are R-concurrent, §6.2), so the
// history is what makes write-heavy workloads expensive for the verifier —
// the paper attributes the ~22× slowdown to the value dictionary's size and
// the induced heap pressure.
const historyCap = 250

type app struct {
	motd *core.Variable
}

// New returns a fresh application instance. Each runtime (server, verifier,
// baseline) needs its own instance.
func New() *core.App {
	a := &app{}
	return &core.App{
		Name:         "motd",
		RequestEvent: RequestEvent,
		Funcs: map[core.FunctionID]core.HandlerFunc{
			FnRequest: a.handleRequest,
		},
		Init: a.init,
	}
}

func (a *app) init(ctx *core.Context) {
	a.motd = ctx.VarNew("motd", ctx.Scalar(value.Map(
		"always", "welcome",
		"daily", map[string]value.V{},
		"history", []value.V{},
	)))
	ctx.Register(RequestEvent, FnRequest)
}

// handleRequest serves {"op":"get","day":d}, {"op":"set","scope":"always",
// "msg":m}, and {"op":"set","scope":"day","day":d,"msg":m}.
func (a *app) handleRequest(ctx *core.Context, req *mv.MV) {
	isGet := ctx.Branch("motd.op-get", ctx.Apply(func(args []value.V) value.V {
		return appkit.Str(appkit.Field(args[0], "op")) == "get"
	}, req))
	if isGet {
		_ = ctx.Apply(func(args []value.V) value.V {
			return appkit.Work(args[0], routeWork)
		}, ctx.Scalar("route:/get"))
		state := ctx.Read(a.motd)
		resp := ctx.Apply(func(args []value.V) value.V {
			st, r := args[0], args[1]
			day := appkit.Str(appkit.Field(r, "day"))
			daily := appkit.AsMap(appkit.Field(st, "daily"))
			if msg, ok := daily[day]; ok {
				return value.Map("msg", msg, "scope", "day")
			}
			return value.Map("msg", appkit.Field(st, "always"), "scope", "always")
		}, state, req)
		ctx.Respond(resp)
		return
	}

	forDay := ctx.Branch("motd.scope-day", ctx.Apply(func(args []value.V) value.V {
		return appkit.Str(appkit.Field(args[0], "scope")) == "day"
	}, req))
	_ = ctx.Apply(func(args []value.V) value.V {
		return appkit.Work(args[0], routeWork)
	}, ctx.Scalar("route:/set"))
	state := ctx.Read(a.motd)
	var next *mv.MV
	if forDay {
		next = ctx.Apply(func(args []value.V) value.V {
			st, r := args[0], args[1]
			daily := appkit.With(appkit.Field(st, "daily"), appkit.Str(appkit.Field(r, "day")), appkit.Field(r, "msg"))
			return withHistory(appkit.With(st, "daily", daily), r)
		}, state, req)
	} else {
		next = ctx.Apply(func(args []value.V) value.V {
			st, r := args[0], args[1]
			return withHistory(appkit.With(st, "always", appkit.Field(r, "msg")), r)
		}, state, req)
	}
	ctx.Write(a.motd, next)
	ctx.Respond(ctx.Scalar(value.Map("status", "ok")))
}

// withHistory records the set operation in st's bounded history list. st is
// the map the caller has just made; the list it holds is shared with the
// state st was derived from, so the extension goes through appkit.Append.
func withHistory(st map[string]value.V, r value.V) value.V {
	hist := appkit.Append(st["history"], value.Map(
		"scope", appkit.Field(r, "scope"),
		"day", appkit.Field(r, "day"),
		"msg", appkit.Field(r, "msg"),
	))
	if len(hist) > historyCap {
		hist = hist[len(hist)-historyCap:]
	}
	st["history"] = hist
	return st
}
