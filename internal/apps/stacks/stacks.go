// Package stacks is the paper's stack-dump logging model application (§6):
// users submit stack dumps, ask how many times a dump has been reported, and
// list all unique dumps with their counts. Dumps and counts live in the
// transactional store, indexed by the dump's digest; loggable variables hold
// the list of all digests in the table and a cache of last-known counts.
//
// The application exercises what the MOTD application cannot:
//
//   - the transactional KV interface (§4.4), including retry errors when two
//     concurrent requests conflict on the same dump (the store aborts the
//     transaction and the request answers "retry");
//   - fan-out handler trees with request effects after the response: a list
//     request answers immediately from the counts cache and then emits one
//     refresh handler per known digest. Those siblings are mutually
//     R-concurrent and run in a different order on every request, so
//     Orochi-JS — which batches only identical handler *sequences* — splits
//     them into many groups, while Karousos batches every list with the same
//     tree shape (§4.1, §6.2).
package stacks

import (
	"sync"

	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// Handler function ids.
const (
	FnRequest   core.FunctionID = "stacks.request"
	FnReport    core.FunctionID = "stacks.report"
	FnReportPut core.FunctionID = "stacks.report-put"
	FnCount     core.FunctionID = "stacks.count"
	FnRefresh   core.FunctionID = "stacks.refresh"
)

// Internal event names.
const (
	RequestEvent core.EventName = "request"
	evReport     core.EventName = "stacks.do-report"
	evReportPut  core.EventName = "stacks.do-report-put"
	evCount      core.EventName = "stacks.do-count"
	evRefresh    core.EventName = "stacks.do-refresh"
)

// routeWork is the simulated cost of parsing and routing one request, and
// symtabWork the cost of loading the symbolization table before touching a
// dump row. Both have group-uniform operands, so batched re-execution runs
// each once per group-handler instead of once per request.
const (
	routeWork  = 8000
	symtabWork = 12000
)

type app struct {
	digests *core.Variable // list of all digests stored in the table
	counts  *core.Variable // cache of last-known counts per digest

	// openTxs threads each report's transaction handle from the handler
	// that opened it to the continuation that commits it, keyed by the
	// context's first request id (the transaction spans two non-concurrent
	// handlers of the same request, as §4.4 permits). This is runtime
	// plumbing, not program state: the transaction's identity is
	// reconstructed during replay from its (hid, opnum) of tx_start.
	// Handlers of different requests run concurrently (server.runParallel,
	// the verifier's group fan-out), so the map is guarded by txMu.
	txMu    sync.Mutex
	openTxs map[core.RID]*core.Tx
}

// New returns a fresh application instance.
func New() *core.App {
	a := &app{}
	a.openTxs = make(map[core.RID]*core.Tx)
	return &core.App{
		Name:         "stacks",
		RequestEvent: RequestEvent,
		Funcs: map[core.FunctionID]core.HandlerFunc{
			FnRequest:   a.handleRequest,
			FnReport:    a.handleReport,
			FnReportPut: a.handleReportPut,
			FnCount:     a.handleCount,
			FnRefresh:   a.handleRefresh,
		},
		Init: a.init,
	}
}

func (a *app) init(ctx *core.Context) {
	a.digests = ctx.VarNew("stacks.digests", ctx.Scalar([]value.V{}))
	a.counts = ctx.VarNew("stacks.counts", ctx.Scalar(map[string]value.V{}))
	ctx.Register(RequestEvent, FnRequest)
	ctx.Register(evReport, FnReport)
	ctx.Register(evReportPut, FnReportPut)
	ctx.Register(evCount, FnCount)
	ctx.Register(evRefresh, FnRefresh)
}

func digestOf(dump value.V) string { return value.DigestString(dump) }

func rowKey(digest string) string { return "dump:" + digest }

var retryResp = value.Map("status", "retry")

// handleRequest dispatches {"op":"report","reqid":id,"dump":d},
// {"op":"count","dump":d}, and {"op":"list","reqid":id}.
func (a *app) handleRequest(ctx *core.Context, req *mv.MV) {
	opIs := func(name string) bool {
		return ctx.Branch("stacks.op-"+name, ctx.Apply(func(args []value.V) value.V {
			return appkit.Str(appkit.Field(args[0], "op")) == name
		}, req))
	}
	switch {
	case opIs("report"):
		// Route parsing: operands are group-uniform, so this collapses.
		_ = ctx.Apply(func(args []value.V) value.V {
			return appkit.Work(args[0], routeWork)
		}, ctx.Scalar("route:/report"))
		ctx.Emit(evReport, ctx.Apply(func(args []value.V) value.V {
			dump := appkit.Field(args[0], "dump")
			return value.Map("digest", digestOf(dump), "dump", dump)
		}, req))
	case opIs("count"):
		_ = ctx.Apply(func(args []value.V) value.V {
			return appkit.Work(args[0], routeWork)
		}, ctx.Scalar("route:/count"))
		ctx.Emit(evCount, ctx.Apply(func(args []value.V) value.V {
			return value.Map("digest", digestOf(appkit.Field(args[0], "dump")))
		}, req))
	default: // list
		_ = ctx.Apply(func(args []value.V) value.V {
			return appkit.Work(args[0], routeWork)
		}, ctx.Scalar("route:/list"))
		snapshot := ctx.Read(a.digests)
		cached := ctx.Read(a.counts)
		// Respond immediately from the cache; the per-digest refreshes run
		// after the response (request effects after response delivery —
		// the event-driven behavior Orochi's model disallows, §2.3).
		ctx.Respond(ctx.Apply(func(args []value.V) value.V {
			snap, cache := appkit.AsList(args[0]), appkit.AsMap(args[1])
			dumps := make([]value.V, 0, len(snap))
			for _, d := range snap {
				cnt := cache[appkit.Str(d)]
				if cnt == nil {
					cnt = 0
				}
				dumps = append(dumps, value.Map("digest", d, "count", cnt))
			}
			return value.Map("status", "ok", "dumps", dumps)
		}, snapshot, cached))
		for i := 0; ; i++ {
			i := i
			more := ctx.Branch("stacks.list-more", ctx.Apply(func(args []value.V) value.V {
				return i < len(appkit.AsList(args[0]))
			}, snapshot))
			if !more {
				break
			}
			ctx.Emit(evRefresh, ctx.Apply(func(args []value.V) value.V {
				return value.Map("digest", appkit.AsList(args[0])[i])
			}, snapshot))
		}
	}
}

// handleReport opens the transaction and checks whether the dump is already
// present, then hands off to the continuation that writes — the transaction
// spans both handlers, so concurrent reports of the same dump conflict at
// the store (retry errors, as in the paper's description).
func (a *app) handleReport(ctx *core.Context, p *mv.MV) {
	_ = ctx.Apply(func(args []value.V) value.V {
		return appkit.Work(args[0], symtabWork)
	}, ctx.Scalar("stacks-symtab"))
	key := ctx.Apply(func(args []value.V) value.V {
		return rowKey(appkit.Str(appkit.Field(args[0], "digest")))
	}, p)
	tx := ctx.TxStart()
	cur, ok := ctx.Get(tx, key)
	if !ctx.BranchBool("report.get-ok", ok) {
		ctx.Respond(ctx.Scalar(retryResp))
		return
	}
	a.txMu.Lock()
	a.openTxs[ctx.RIDs()[0]] = tx
	a.txMu.Unlock()
	ctx.Emit(evReportPut, ctx.Apply(func(args []value.V) value.V {
		return appkit.With(args[1], "row", args[0])
	}, cur, p))
}

// handleReportPut performs the PUT and commit for a report, updates the
// shared digest list for new dumps, and responds.
func (a *app) handleReportPut(ctx *core.Context, p *mv.MV) {
	a.txMu.Lock()
	tx := a.openTxs[ctx.RIDs()[0]]
	delete(a.openTxs, ctx.RIDs()[0])
	a.txMu.Unlock()
	key := ctx.Apply(func(args []value.V) value.V {
		return rowKey(appkit.Str(appkit.Field(args[0], "digest")))
	}, p)
	found := ctx.Branch("report.found", ctx.Apply(func(args []value.V) value.V {
		return appkit.Field(args[0], "row") != nil
	}, p))
	if found {
		next := ctx.Apply(func(args []value.V) value.V {
			row := appkit.Field(args[0], "row")
			return appkit.With(row, "count", appkit.Num(appkit.Field(row, "count"))+1)
		}, p)
		if !ctx.BranchBool("report.put-ok", ctx.Put(tx, key, next)) {
			ctx.Respond(ctx.Scalar(retryResp))
			return
		}
		if !ctx.BranchBool("report.commit-ok", ctx.Commit(tx)) {
			ctx.Respond(ctx.Scalar(retryResp))
			return
		}
		ctx.Respond(ctx.Apply(func(args []value.V) value.V {
			return value.Map("status", "reported", "count", appkit.Field(args[0], "count"))
		}, next))
		return
	}
	next := ctx.Apply(func(args []value.V) value.V {
		return value.Map("count", 1, "dump", appkit.Field(args[0], "dump"))
	}, p)
	if !ctx.BranchBool("report.insert-ok", ctx.Put(tx, key, next)) {
		ctx.Respond(ctx.Scalar(retryResp))
		return
	}
	if !ctx.BranchBool("report.insert-commit-ok", ctx.Commit(tx)) {
		ctx.Respond(ctx.Scalar(retryResp))
		return
	}
	// Record the new digest in the shared list only after the insert
	// committed, so list requests never see uncommitted dumps.
	known := ctx.Read(a.digests)
	ctx.Write(a.digests, ctx.Apply(func(args []value.V) value.V {
		return appkit.Append(args[0], appkit.Field(args[1], "digest"))
	}, known, p))
	ctx.Respond(ctx.Scalar(value.Map("status", "new")))
}

// handleCount answers how many times a dump has been reported.
func (a *app) handleCount(ctx *core.Context, p *mv.MV) {
	_ = ctx.Apply(func(args []value.V) value.V {
		return appkit.Work(args[0], symtabWork)
	}, ctx.Scalar("stacks-symtab"))
	key := ctx.Apply(func(args []value.V) value.V {
		return rowKey(appkit.Str(appkit.Field(args[0], "digest")))
	}, p)
	tx := ctx.TxStart()
	cur, ok := ctx.Get(tx, key)
	if !ctx.BranchBool("count.get-ok", ok) {
		ctx.Respond(ctx.Scalar(retryResp))
		return
	}
	if !ctx.BranchBool("count.commit-ok", ctx.Commit(tx)) {
		ctx.Respond(ctx.Scalar(retryResp))
		return
	}
	ctx.Respond(ctx.Apply(func(args []value.V) value.V {
		if args[0] == nil {
			return value.Map("status", "ok", "count", 0)
		}
		return value.Map("status", "ok", "count", appkit.Field(args[0], "count"))
	}, cur))
}

// handleRefresh re-reads one dump's row and folds the count into the shared
// cache. Refresh siblings of one list request are mutually R-concurrent:
// they may replay in any order, and their cache read-modify-writes are fed
// from the variable log (§4.2).
func (a *app) handleRefresh(ctx *core.Context, p *mv.MV) {
	_ = ctx.Apply(func(args []value.V) value.V {
		return appkit.Work(args[0], symtabWork)
	}, ctx.Scalar("stacks-symtab"))
	key := ctx.Apply(func(args []value.V) value.V {
		return rowKey(appkit.Str(appkit.Field(args[0], "digest")))
	}, p)
	tx := ctx.TxStart()
	cur, ok := ctx.Get(tx, key)
	if !ctx.BranchBool("refresh.get-ok", ok) {
		return // conflict: leave the cache stale
	}
	if !ctx.BranchBool("refresh.commit-ok", ctx.Commit(tx)) {
		return
	}
	found := ctx.Branch("refresh.found", ctx.Apply(func(args []value.V) value.V {
		return args[0] != nil
	}, cur))
	if !found {
		return
	}
	cache := ctx.Read(a.counts)
	ctx.Write(a.counts, ctx.Apply(func(args []value.V) value.V {
		c, row, pp := args[0], args[1], args[2]
		return appkit.With(c, appkit.Str(appkit.Field(pp, "digest")), appkit.Field(row, "count"))
	}, cache, cur, p))
}
