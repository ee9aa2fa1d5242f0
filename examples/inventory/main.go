// Inventory: the two transactional extensions through the public API —
// range reads (Context.Scan, with predicate locking at the store) and a
// snapshot-isolation store (MVCC, first-committer-wins) whose executions the
// audit checks with Adya's G-SI phenomena over the alleged begin/commit
// order.
//
// The program stocks items, lists them with a prefix scan inside a
// transaction, audits the run at the snapshot-isolation level, and then
// shows that the same advice cannot masquerade as a serializable execution
// once concurrency has produced an SI-only anomaly.
package main

import (
	"fmt"
	"log"
	"sync"

	"karousos.dev/karousos"
)

const (
	fnRequest karousos.FunctionID = "inv.request"
	fnCommit  karousos.FunctionID = "inv.commit"
	evCommit  karousos.EventName  = "inv.do-commit"
)

// newInventory builds the application on a snapshot-isolation store. A
// "stock" request writes an item row; a "list" request scans the item prefix
// in one handler and commits in a continuation, so transactions genuinely
// span handlers.
func newInventory() (*karousos.App, *karousos.Store) {
	// open hands each list transaction from the scan handler to its commit
	// continuation. Handlers of different requests run concurrently (the
	// audit's group fan-out), so the map is guarded.
	var openMu sync.Mutex
	open := map[karousos.RID]*karousos.Tx{}
	app := &karousos.App{Name: "inventory", RequestEvent: "request"}
	app.Init = func(ctx *karousos.Context) {
		ctx.Register("request", fnRequest)
		ctx.Register(evCommit, fnCommit)
	}
	app.Funcs = map[karousos.FunctionID]karousos.HandlerFunc{
		fnRequest: func(ctx *karousos.Context, req *karousos.MV) {
			isStock := ctx.Branch("op-stock", ctx.Apply(func(a []karousos.V) karousos.V {
				return karousos.Str(karousos.Field(a[0], "op")) == "stock"
			}, req))
			tx := ctx.TxStart()
			if isStock {
				key := ctx.Apply(func(a []karousos.V) karousos.V {
					return "item:" + karousos.Str(karousos.Field(a[0], "sku"))
				}, req)
				val := ctx.Apply(func(a []karousos.V) karousos.V {
					return karousos.Map("qty", karousos.Field(a[0], "qty"))
				}, req)
				if !ctx.BranchBool("put-ok", ctx.Put(tx, key, val)) ||
					!ctx.BranchBool("commit-ok", ctx.Commit(tx)) {
					ctx.Respond(ctx.Scalar(karousos.Map("status", "retry")))
					return
				}
				ctx.Respond(ctx.Scalar(karousos.Map("status", "stocked")))
				return
			}
			rows, ok := ctx.Scan(tx, ctx.Scalar("item:"))
			if !ctx.BranchBool("scan-ok", ok) {
				ctx.Respond(ctx.Scalar(karousos.Map("status", "retry")))
				return
			}
			openMu.Lock()
			open[ctx.RIDs()[0]] = tx
			openMu.Unlock()
			ctx.Emit(evCommit, rows)
		},
		fnCommit: func(ctx *karousos.Context, rows *karousos.MV) {
			openMu.Lock()
			tx := open[ctx.RIDs()[0]]
			delete(open, ctx.RIDs()[0])
			openMu.Unlock()
			if !ctx.BranchBool("list-commit-ok", ctx.Commit(tx)) {
				ctx.Respond(ctx.Scalar(karousos.Map("status", "retry")))
				return
			}
			ctx.Respond(ctx.Apply(func(a []karousos.V) karousos.V {
				return karousos.Map("status", "ok", "items", a[0])
			}, rows))
		},
	}
	return app, karousos.NewStore(karousos.StoreSnapshotIsolation)
}

func main() {
	spec := karousos.AppSpec{
		Name:      "inventory",
		UsesStore: true,
		Isolation: karousos.SnapshotIsolation,
		New:       newInventory,
	}

	var reqs []karousos.Request
	for i := 0; i < 30; i++ {
		rid := karousos.RID(fmt.Sprintf("r%02d", i))
		if i%3 == 2 {
			reqs = append(reqs, karousos.Request{RID: rid, Input: karousos.Map("op", "list")})
		} else {
			reqs = append(reqs, karousos.Request{RID: rid, Input: karousos.Map(
				"op", "stock", "sku", fmt.Sprintf("widget-%d", i%5), "qty", i)})
		}
	}

	run, err := karousos.Serve(spec, reqs, 8, 42, karousos.CollectKarousos)
	if err != nil {
		log.Fatal(err)
	}
	lastList := karousos.V(nil)
	for _, rid := range run.Trace.RIDs() {
		out := run.Trace.Outputs()[rid]
		if karousos.Field(out, "items") != nil {
			lastList = out
		}
	}
	fmt.Printf("served %d requests (%d store conflicts)\n", len(run.Trace.RIDs()), run.Conflicts)
	fmt.Printf("last list response: %s\n", karousos.FormatValue(lastList))

	verdict := karousos.VerifyKarousos(spec, run.Trace, run.Karousos)
	if verdict.Err != nil {
		log.Fatalf("audit rejected honest SI run: %v", verdict.Err)
	}
	fmt.Printf("audit at snapshot isolation: ACCEPTED (%d groups, %v)\n",
		verdict.Stats.Groups, verdict.Elapsed)

	// The begin/commit order in the advice is what distinguishes SI from
	// stronger claims; dropping it must reject.
	forged := run.Karousos.Clone()
	forged.TxOrder = nil
	if v := karousos.VerifyKarousos(spec, run.Trace, forged); v.Err == nil {
		log.Fatal("advice without begin/commit order accepted at SI level")
	} else {
		fmt.Printf("advice without begin/commit order: REJECTED (%v)\n", v.Err)
	}
}
