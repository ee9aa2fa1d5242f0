package verifier

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// This file holds the one writer of shared re-execution state (apply) and the
// parallel audit engine's scaffolding around it: a deterministic fan-out
// helper, per-phase preprocess sharding, and the per-group effect buffers
// whose canonical-order merge makes concurrent re-execution's verdict
// bit-identical to the immediate engine's. The determinism argument lives in
// DESIGN.md §13; the invariants it rests on are marked at the code they
// constrain.

// workers resolves the configured worker count; 0 means GOMAXPROCS.
func (v *Verifier) workers() int {
	if v.cfg.Workers > 0 {
		return v.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut runs fn(0..n-1) over a pool of goroutines and returns when all
// items finish. Work is claimed from an atomic counter; results must flow
// through indexed slots the caller merges in canonical order afterwards —
// the deterministic-fanout idiom detlint blesses. fn must contain its own
// panics (see asReject): a panic escaping a pool goroutine would kill the
// process, bypassing the audit's containment boundary.
func fanOut(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// asReject converts a recovered panic value into a rejection: a core.Reject
// passes through; anything else — the advice is untrusted, and a panic it
// provoked must not take down the audit process — is contained as an
// InternalFault with the panicking goroutine's stack attached. Workers and
// auditFull share it, so a worker-side panic surfaces (re-panicked at its
// merge position) as the same error a sequential run would have produced.
func asReject(r any) *core.Reject {
	if rej, ok := r.(core.Reject); ok {
		return &rej
	}
	return &core.Reject{
		Code:   core.RejectInternalFault,
		Reason: fmt.Sprintf("verifier panicked: %v", r),
		Stack:  string(debug.Stack()),
	}
}

// preprocessEdges runs the four edge-construction phases. Sequentially they
// write straight into the dense graph; in parallel each phase fills a
// private shard and the coordinator merges the shards in phase order, so the
// assembled edge list — and with it every successor ordering and every cycle
// report — is identical to the sequential run's.
//
// Phase 3 bundles the handler, external-state, and isolation passes into one
// task: they share single-writer state (opMap, activated, txIndex, readMap,
// lastMod, inWO, the overflow intern table) and their seed-relative order is
// load-bearing for rejection precedence.
func (v *Verifier) preprocessEdges() {
	w := v.workers()
	if w <= 1 {
		s := &esink{v: v}
		v.addTimePrecedenceEdges(s)
		v.addProgramEdges(s)
		v.addBoundaryEdges(s)
		v.addHandlerRelatedEdges(s)
		v.addExternalStateEdges(s)
		v.isolationLevelVerification()
		return
	}
	phases := []func(s *esink){
		v.addTimePrecedenceEdges,
		v.addProgramEdges,
		v.addBoundaryEdges,
		func(s *esink) {
			v.addHandlerRelatedEdges(s)
			v.addExternalStateEdges(s)
			v.isolationLevelVerification()
		},
	}
	shards := make([]*eshard, len(phases))
	fanOut(w, len(phases), func(i int) {
		sh := &eshard{}
		defer func() {
			if r := recover(); r != nil {
				sh.rej = asReject(r)
			}
			shards[i] = sh
		}()
		phases[i](&esink{v: v, shard: sh})
	})
	// Merge in phase order. A rejection surfaces at its phase's position, so
	// when several phases reject concurrently the earliest phase wins —
	// exactly the phase that would have rejected first sequentially. Edges
	// of phases after a rejecting one are discarded with it (sequentially
	// they would never have been built).
	for _, sh := range shards {
		for _, id := range sh.nodes {
			v.eg.d.AddNode(id)
		}
		v.eg.d.AddEdges(sh.edges)
		v.checkBudgets()
		if sh.rej != nil {
			panic(*sh.rej)
		}
	}
}

// --- the one writer of shared re-execution state ---

// intentKind enumerates the shared-state mutations a group replay performs.
// Every engine expresses them as intents and hands them to apply: the
// immediate engine at once, the buffered engine when the coordinator merges
// the group's recorded stream at its canonical position, the memo replay
// after rebinding a cached stream to this epoch's rids.
type intentKind uint8

const (
	effDict        intentKind = iota // vv.dict[(op.RID, op.HID)] append (op.Num, val)
	effVarConsumed                   // vv.consumed[op] = true
	effReadObs                       // vv.readObs[prec] append op
	effWriteObs                      // vv.writeObs[prec] = op (conflict-checked)
	effInitial                       // vv.initial = op (conflict-checked)
	effOpConsumed                    // opConsumed[op] = true
	effExecuted                      // executed[op.RID][op.HID] = true
	effResponded                     // responded[op.RID] = true
	effRerun                         // one more handler re-executed
)

// intent is one mutation. One flat struct for all kinds keeps a recorded
// stream a single slice; unused fields stay zero.
type intent struct {
	kind intentKind
	vv   *vvar
	op   core.Op
	prec core.Op
	val  value.V
}

// apply performs one intent on the shared verifier state. It is the only
// code that writes the variable bookkeeping, the consumption marks, the
// executed/responded sets and HandlersRerun once init replay begins, so the
// two cross-group conflict checks (write_observer, initializer) exist once
// and run at the same position in the canonical intent order whichever
// engine produced the intent. Must run on the coordinating goroutine.
func (v *Verifier) apply(in *intent) {
	vv := in.vv
	switch in.kind {
	case effDict:
		k := dkey{rid: in.op.RID, hid: in.op.HID}
		vv.dict[k] = append(vv.dict[k], dictEntry{num: in.op.Num, val: in.val})
	case effVarConsumed:
		vv.consumed[in.op] = true
	case effReadObs:
		vv.readObs[in.prec] = append(vv.readObs[in.prec], in.op)
	case effWriteObs:
		if prev, set := vv.writeObs[in.prec]; set {
			core.RejectCodef(core.RejectLogMismatch, "writes %v and %v both overwrite %v of variable %s", prev, in.op, in.prec, vv.id)
		}
		vv.writeObs[in.prec] = in.op
	case effInitial:
		if vv.initial != nil {
			core.RejectCodef(core.RejectLogMismatch, "variable %s has two initial writes (%v and %v)", vv.id, *vv.initial, in.op)
		}
		cp := in.op
		vv.initial = &cp
	case effOpConsumed:
		v.opConsumed[in.op] = true
	case effExecuted:
		ex := v.executed[in.op.RID]
		if ex == nil {
			ex = make(map[core.HID]bool)
			v.executed[in.op.RID] = ex
		}
		ex[in.op.HID] = true
	case effResponded:
		v.responded[in.op.RID] = true
	case effRerun:
		v.Stats.HandlersRerun++
	}
}

// --- buffered group re-execution ---

// vkey keys a group's private version-dictionary overlay.
type vkey struct {
	varID core.VarID
	rid   core.RID
	hid   core.HID
}

// groupEffects is one group's private effect buffer. A buffered replay reads
// shared verifier state that is frozen during reExec (logs, opMap, activated,
// nondet, txIndex, carryTx, the graph) and writes only here — which is also
// what makes a group's intent stream a pure function of its input closure,
// and therefore memoizable (memo.go).
type groupEffects struct {
	intents []intent
	// overlay holds the group's own dictionary writes; findNearest reads it
	// for the group's rids and falls through to the frozen init-level
	// dictionary — the only dictionary state another group could never have
	// written.
	overlay map[vkey][]dictEntry
	pollN   int
	rej     *core.Reject
}

// reExecBuffered re-executes the groups into private effect buffers and
// merges them in canonical tag order, so the verdict, the first rejection and
// every Stats counter are bit-identical to the immediate engine no matter how
// the scheduler interleaves the workers (DESIGN.md §13). With a memo cache
// configured, every cache interaction also happens here on the coordinator,
// in the same order: groups are keyed and probed before the fan-out (hits
// skip the worker pool and replay at their merge position), cold groups'
// streams are captured at the merge, and captured candidates are published
// only after the whole audit accepts (memoPublish).
func (v *Verifier) reExecBuffered(order []string, groups map[string][]core.RID) {
	keys, hits := v.memoProbe(order, groups)
	effs := make([]*groupEffects, len(order))
	fanOut(v.workers(), len(order), func(i int) {
		if hits[i] != nil {
			return
		}
		eff := &groupEffects{overlay: make(map[vkey][]dictEntry)}
		defer func() {
			if r := recover(); r != nil {
				eff.rej = asReject(r)
			}
			effs[i] = eff
		}()
		v.runGroup(groups[order[i]], eff)
	})
	for i, eff := range effs {
		rids := groups[order[i]]
		if hits[i] != nil {
			v.memoReplay(hits[i], rids)
			continue
		}
		// A cross-group conflict surfaces at the first conflicting intent —
		// where the immediate engine would have rejected — and so correctly
		// masks the group's own later rejection.
		for j := range eff.intents {
			v.poll()
			v.apply(&eff.intents[j])
		}
		if eff.rej != nil {
			panic(*eff.rej)
		}
		if keys != nil {
			v.memoCapture(keys[i], rids, eff)
		}
	}
}
