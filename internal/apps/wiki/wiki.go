// Package wiki is the real-world-shaped application of the paper's
// evaluation (§6): a wiki serving page creations, comment creations, and
// render requests (mixed 25/15/60, loosely derived from a Wikipedia trace).
//
// Its state layout mirrors what made Wiki.js interesting for Karousos:
//
//   - pages and comments live in the transactional store;
//   - a configuration object is written once by the init function and read
//     by every request — those reads are R-ordered after I's write, so
//     Karousos logs none of them while Orochi-JS logs every one (a large
//     part of Karousos's ~50% advice saving in Figure 8);
//   - a render cache and a connection-pool object are shared loggable
//     variables with cross-request R-concurrent accesses; the pool object
//     grows with the number of concurrent requests, which is why wiki advice
//     grows with concurrency (§6.3).
//
// Each request runs a small tree: the request handler touches config and the
// pool, then hands off to a store handler that performs the transaction and
// responds — "each request has a smaller number of activations" than stacks
// (§6.1).
package wiki

import (
	"fmt"

	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/value"
)

// Handler function ids.
const (
	FnRequest core.FunctionID = "wiki.request"
	FnCreate  core.FunctionID = "wiki.create"
	FnComment core.FunctionID = "wiki.comment"
	FnRender  core.FunctionID = "wiki.render"
	FnStats   core.FunctionID = "wiki.stats"
)

// Event names.
const (
	RequestEvent core.EventName = "request"
	evCreate     core.EventName = "wiki.do-create"
	evComment    core.EventName = "wiki.do-comment"
	evRender     core.EventName = "wiki.do-render"
	evStats      core.EventName = "wiki.do-stats"
)

// Simulated CPU costs: routing/middleware per request and template
// compilation per render. Both run over group-uniform operands, so grouped
// re-execution pays them once per group.
const (
	routeWork    = 60000
	templateWork = 200000
	renderWork   = 8000
)

type app struct {
	config *core.Variable // written once at init, read everywhere
	cache  *core.Variable // rendered-page cache, shared across requests
	pool   *core.Variable // connection-pool object, grows with concurrency
	stats  *core.Variable // per-operation access counters
	reqctx *core.Variable // current middleware context, rewritten per stage
}

// New returns a fresh application instance.
func New() *core.App {
	a := &app{}
	return &core.App{
		Name:         "wiki",
		RequestEvent: RequestEvent,
		Funcs: map[core.FunctionID]core.HandlerFunc{
			FnRequest: a.handleRequest,
			FnCreate:  a.handleCreate,
			FnComment: a.handleComment,
			FnRender:  a.handleRender,
			FnStats:   a.handleStats,
		},
		Init: a.init,
	}
}

func (a *app) init(ctx *core.Context) {
	a.config = ctx.VarNew("wiki.config", ctx.Scalar(value.Map(
		"siteTitle", "karousos wiki",
		"theme", "default",
		"footer", "powered by kem",
		"maxComments", 1000,
	)))
	a.cache = ctx.VarNew("wiki.cache", ctx.Scalar(map[string]value.V{}))
	a.pool = ctx.VarNew("wiki.pool", ctx.Scalar(value.Map("slots", map[string]value.V{})))
	a.stats = ctx.VarNew("wiki.stats", ctx.Scalar(map[string]value.V{}))
	a.reqctx = ctx.VarNew("wiki.reqctx", ctx.Scalar(value.Map("op", nil, "stage", "idle")))
	ctx.Register(RequestEvent, FnRequest)
	ctx.Register(evCreate, FnCreate)
	ctx.Register(evComment, FnComment)
	ctx.Register(evRender, FnRender)
	ctx.Register(evStats, FnStats)
}

func pageKey(id string) string           { return "page:" + id }
func commentKey(id string, n int) string { return fmt.Sprintf("comment:%s:%d", id, n) }
func acquireKeyOf(p value.V) string      { return "conn-" + appkit.Str(appkit.Field(p, "reqid")) }

// acquire marks a connection slot in the shared pool (the slot is keyed by
// request id, so the pool object's size tracks the number of in-flight
// requests, as in the paper's §6.3 observation).
func (a *app) acquire(ctx *core.Context, req *mv.MV) {
	pool := ctx.Read(a.pool)
	ctx.Write(a.pool, ctx.Apply(func(args []value.V) value.V {
		p, r := args[0], args[1]
		return appkit.With(p, "slots", appkit.With(appkit.Field(p, "slots"), acquireKeyOf(r), value.Map("state", "busy")))
	}, pool, req))
}

// stageReqCtx overwrites the shared middleware-context object with the
// current stage — a diagnostics variable every request rewrites several
// times in straight-line code.
func (a *app) stageReqCtx(ctx *core.Context, req *mv.MV, stage string) {
	ctx.Write(a.reqctx, ctx.Apply(func(args []value.V) value.V {
		return value.Map("op", appkit.Field(args[0], "op"), "reqid", appkit.Field(args[0], "reqid"), "stage", stage)
	}, req))
}

// clearReqCtx resets the middleware context once the operation handler is
// done; the write is R-ordered after the request handler's stages.
func (a *app) clearReqCtx(ctx *core.Context, req *mv.MV) {
	ctx.Write(a.reqctx, ctx.Scalar(value.Map("op", nil, "stage", "idle")))
}

// release frees the request's connection slot.
func (a *app) release(ctx *core.Context, req *mv.MV) {
	a.clearReqCtx(ctx, req)
	pool := ctx.Read(a.pool)
	ctx.Write(a.pool, ctx.Apply(func(args []value.V) value.V {
		p, r := args[0], args[1]
		return appkit.With(p, "slots", appkit.Without(appkit.Field(p, "slots"), acquireKeyOf(r)))
	}, pool, req))
}

// handleRequest reads the config (an R-ordered, unlogged read under
// Karousos), acquires a pool slot, and dispatches to the operation handler
// plus a parallel access-stats handler. The two children are mutually
// R-concurrent, so the scheduler runs them in either order; Karousos groups
// both orders together while Orochi-JS cannot (§4.1).
func (a *app) handleRequest(ctx *core.Context, req *mv.MV) {
	_ = ctx.Read(a.config)
	a.acquire(ctx, req)
	// Middleware pipeline: the context object is rewritten once per stage.
	// Consecutive writes by the same handler are R-ordered, so Karousos logs
	// only the first of each burst (whose overwritten predecessor belongs to
	// another request) while Orochi-JS logs every stage — the §2.3 verbosity
	// problem for state shared between discrete execution units, and a large
	// part of Karousos's advice saving on this application (§6.3).
	a.stageReqCtx(ctx, req, "parse")
	a.stageReqCtx(ctx, req, "session")
	a.stageReqCtx(ctx, req, "auth")
	a.stageReqCtx(ctx, req, "validate")
	a.stageReqCtx(ctx, req, "route")
	opIs := func(name string) bool {
		return ctx.Branch("wiki.op-"+name, ctx.Apply(func(args []value.V) value.V {
			return appkit.Str(appkit.Field(args[0], "op")) == name
		}, req))
	}
	route := func(name string) {
		// Routing and middleware: group-uniform operands, collapsed.
		_ = ctx.Apply(func(args []value.V) value.V {
			return appkit.Work(args[0], routeWork)
		}, ctx.Scalar("route:/"+name))
	}
	switch {
	case opIs("create"):
		route("create")
		ctx.Emit(evStats, ctx.Scalar(value.Map("op", "create")))
		ctx.Emit(evCreate, req)
	case opIs("comment"):
		route("comment")
		ctx.Emit(evStats, ctx.Scalar(value.Map("op", "comment")))
		ctx.Emit(evComment, req)
	default:
		route("render")
		ctx.Emit(evStats, ctx.Scalar(value.Map("op", "render")))
		ctx.Emit(evRender, req)
	}
}

// handleStats folds one access into the shared per-operation counters; it
// runs concurrently with the operation handler and often after the response
// has already been delivered.
func (a *app) handleStats(ctx *core.Context, p *mv.MV) {
	st := ctx.Read(a.stats)
	ctx.Write(a.stats, ctx.Apply(func(args []value.V) value.V {
		s, pp := args[0], args[1]
		op := appkit.Str(appkit.Field(pp, "op"))
		return appkit.With(s, op, appkit.Num(appkit.Field(s, op))+1)
	}, st, p))
}

// handleCreate stores a new page and invalidates its cache entry.
func (a *app) handleCreate(ctx *core.Context, req *mv.MV) {
	cfg := ctx.Read(a.config)
	key := ctx.Apply(func(args []value.V) value.V {
		return pageKey(appkit.Str(appkit.Field(args[0], "id")))
	}, req)
	tx := ctx.TxStart()
	page := ctx.Apply(func(args []value.V) value.V {
		r, c := args[0], args[1]
		return value.Map(
			"title", appkit.Field(r, "title"),
			"content", appkit.Field(r, "content"),
			"comments", 0,
			"theme", appkit.Field(c, "theme"),
		)
	}, req, cfg)
	if !ctx.BranchBool("create.put-ok", ctx.Put(tx, key, page)) {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "retry")))
		return
	}
	if !ctx.BranchBool("create.commit-ok", ctx.Commit(tx)) {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "retry")))
		return
	}
	cache := ctx.Read(a.cache)
	ctx.Write(a.cache, ctx.Apply(func(args []value.V) value.V {
		return appkit.Without(args[0], appkit.Str(appkit.Field(args[1], "id")))
	}, cache, req))
	a.release(ctx, req)
	ctx.Respond(ctx.Apply(func(args []value.V) value.V {
		return value.Map("status", "created", "id", appkit.Field(args[0], "id"))
	}, req))
}

// handleComment appends a comment row and bumps the page's comment count in
// one transaction.
func (a *app) handleComment(ctx *core.Context, req *mv.MV) {
	key := ctx.Apply(func(args []value.V) value.V {
		return pageKey(appkit.Str(appkit.Field(args[0], "page")))
	}, req)
	tx := ctx.TxStart()
	page, ok := ctx.Get(tx, key)
	if !ctx.BranchBool("comment.get-ok", ok) {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "retry")))
		return
	}
	exists := ctx.Branch("comment.page-exists", ctx.Apply(func(args []value.V) value.V {
		return args[0] != nil
	}, page))
	if !exists {
		ctx.Abort(tx)
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "no-such-page")))
		return
	}
	ckey := ctx.Apply(func(args []value.V) value.V {
		p, r := args[0], args[1]
		return commentKey(appkit.Str(appkit.Field(r, "page")), int(appkit.Num(appkit.Field(p, "comments"))))
	}, page, req)
	comment := ctx.Apply(func(args []value.V) value.V {
		return value.Map("text", appkit.Field(args[0], "text"))
	}, req)
	bumped := ctx.Apply(func(args []value.V) value.V {
		return appkit.With(args[0], "comments", appkit.Num(appkit.Field(args[0], "comments"))+1)
	}, page)
	if !ctx.BranchBool("comment.put-ok", ctx.Put(tx, ckey, comment)) ||
		!ctx.BranchBool("comment.bump-ok", ctx.Put(tx, key, bumped)) ||
		!ctx.BranchBool("comment.commit-ok", ctx.Commit(tx)) {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "retry")))
		return
	}
	cache := ctx.Read(a.cache)
	ctx.Write(a.cache, ctx.Apply(func(args []value.V) value.V {
		return appkit.Without(args[0], appkit.Str(appkit.Field(args[1], "page")))
	}, cache, req))
	a.release(ctx, req)
	ctx.Respond(ctx.Scalar(value.Map("status", "commented")))
}

// handleRender serves a page from the shared render cache, or renders it
// from the store and fills the cache.
func (a *app) handleRender(ctx *core.Context, req *mv.MV) {
	cfg := ctx.Read(a.config)
	cache := ctx.Read(a.cache)
	hit := ctx.Branch("render.cache-hit", ctx.Apply(func(args []value.V) value.V {
		c, r := args[0], args[1]
		_, ok := appkit.AsMap(c)[appkit.Str(appkit.Field(r, "id"))]
		return ok
	}, cache, req))
	if hit {
		a.release(ctx, req)
		ctx.Respond(ctx.Apply(func(args []value.V) value.V {
			c, r := args[0], args[1]
			return value.Map("status", "ok", "html", appkit.AsMap(c)[appkit.Str(appkit.Field(r, "id"))], "cached", true)
		}, cache, req))
		return
	}
	key := ctx.Apply(func(args []value.V) value.V {
		return pageKey(appkit.Str(appkit.Field(args[0], "id")))
	}, req)
	tx := ctx.TxStart()
	page, ok := ctx.Get(tx, key)
	if !ctx.BranchBool("render.get-ok", ok) {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "retry")))
		return
	}
	if !ctx.BranchBool("render.commit-ok", ctx.Commit(tx)) {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "retry")))
		return
	}
	exists := ctx.Branch("render.page-exists", ctx.Apply(func(args []value.V) value.V {
		return args[0] != nil
	}, page))
	if !exists {
		a.release(ctx, req)
		ctx.Respond(ctx.Scalar(value.Map("status", "not-found")))
		return
	}
	// Template compilation depends only on the theme — group-uniform, so it
	// collapses and runs once per group; per-page rendering stays per
	// request.
	_ = ctx.Apply(func(args []value.V) value.V {
		return appkit.Work(args[0], templateWork)
	}, ctx.Apply(func(args []value.V) value.V {
		return appkit.Field(args[0], "theme")
	}, cfg))
	html := ctx.Apply(renderPage, page, cfg)
	cache2 := ctx.Read(a.cache)
	ctx.Write(a.cache, ctx.Apply(func(args []value.V) value.V {
		c, r, h := args[0], args[1], args[2]
		return appkit.With(c, appkit.Str(appkit.Field(r, "id")), h)
	}, cache2, req, html))
	a.release(ctx, req)
	ctx.Respond(ctx.Apply(func(args []value.V) value.V {
		return value.Map("status", "ok", "html", args[0], "cached", false)
	}, html))
}

// renderPage produces the page's HTML from its stored fields and the site
// configuration. The body of the page is a digest standing in for the
// rendered markup — it keeps cached values small (an ETag, in web terms)
// while still costing real, per-page CPU work.
func renderPage(args []value.V) value.V {
	page, cfg := args[0], args[1]
	body := appkit.Work(value.List(appkit.Field(page, "title"), appkit.Field(page, "content"),
		appkit.Field(page, "comments"), appkit.Field(cfg, "footer")), renderWork)
	return fmt.Sprintf("<html:%s:%s>", appkit.Str(appkit.Field(page, "title")), body)
}
