package verifier

import (
	"math"
	"sort"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/graph"
	"karousos.dev/karousos/internal/trace"
)

// egraph is the interned execution graph: G over dense uint32 node IDs
// instead of map[gnode] keys. The ID space is laid out up-front from the
// trace length and the advice's opcounts, so the hot preprocess phases turn
// into pure integer arithmetic over a slice-backed graph.Dense — no gnode
// hashing, no per-node map entries — and the parallel phases can buffer
// edges as flat []uint32 shards.
//
// Layout (ascending, contiguous):
//
//	[0, nEvents)            barrier nodes: bar i is the trace position i
//	[reqBase, slotBase)     per-rid pairs in trace first-occurrence order:
//	                        reqID = reqBase+2k, respID = reqBase+2k+1
//	[slotBase, ovBase)      per-(rid,hid) slots in sorted (rid, hid) order:
//	                        ops base..base+n, handler-end base+n+1
//	[ovBase, ...)           overflow: interned on demand for nodes outside
//	                        the layout (init-level ops, carried prior-epoch
//	                        writes), with an ID→gnode table for dumps
type egraph struct {
	d *graph.Dense

	nEvents int
	reqBase uint32
	ridIdx  map[core.RID]uint32
	ridList []core.RID

	slotBase uint32
	slotOf   map[dkey]int32
	slotList []eslot // ascending base
	ids      *idTable

	ovBase uint32
	ovIDs  map[gnode]uint32
	ovList []gnode
}

// eslot is one advised handler activation's contiguous ID block.
type eslot struct {
	rid  core.RID
	hid  core.HID
	h    uint32 // interned hid
	base uint32
	n    int // advised opcount; ops occupy base..base+n, hEnd is base+n+1
}

// layoutHardCap leaves half the uint32 space for overflow IDs; an advice
// whose layout alone needs two billion nodes is rejected outright.
const layoutHardCap = math.MaxUint32 / 2

// buildLayout sizes the dense ID space and validates the opcount table. The
// validation loop is addProgramEdges' former prologue, in the identical
// iteration order with identical messages, hoisted here because the boundary
// and handler phases run concurrently with the program phase and rely on it.
// Hoisting is rejection-order neutral: the only phase between this point and
// the old validation site is addTimePrecedenceEdges, which never rejects.
func (v *Verifier) buildLayout() {
	lim := v.cfg.Limits
	eg := &egraph{
		nEvents: len(v.tr.Events),
		ridIdx:  make(map[core.RID]uint32),
		slotOf:  make(map[dkey]int32),
		ovIDs:   make(map[gnode]uint32),
		ids:     v.ids,
	}
	// Only response positions of the barrier range become nodes
	// (addTimePrecedenceEdges); in an accepted audit every other layout id
	// does. The layout less the request positions is thus a lower bound on
	// G's nodes, and bounding it never rejects a G of exactly
	// MaxGraphNodes nodes.
	reqEvents := uint64(0)
	for _, e := range v.tr.Events {
		if e.Kind == trace.Req {
			reqEvents++
		}
		rid := core.RID(e.RID)
		if _, ok := eg.ridIdx[rid]; !ok {
			eg.ridIdx[rid] = uint32(len(eg.ridList))
			eg.ridList = append(eg.ridList, rid)
		}
	}
	eg.reqBase = uint32(eg.nEvents)
	eg.slotBase = eg.reqBase + 2*uint32(len(eg.ridList))

	capLimit := uint64(layoutHardCap)
	if lim.MaxGraphNodes > 0 && uint64(lim.MaxGraphNodes) < capLimit {
		capLimit = uint64(lim.MaxGraphNodes)
	}
	next := uint64(eg.slotBase)
	handlers := 0
	eg.slotList = make([]eslot, 0, len(v.adv.OpCounts))
	for _, rid := range sortedKeys(v.adv.OpCounts) {
		if !v.inTrace[rid] {
			core.Rejectf("opcounts mention request %s absent from trace", rid)
		}
		r := v.ids.ridOf[rid]
		counts := v.adv.OpCounts[rid]
		for _, hid := range sortedKeys(counts) {
			n := counts[hid]
			if n < 0 {
				core.Rejectf("negative opcount for (%s,%s)", rid, hid)
			}
			handlers++
			if lim.MaxHandlers > 0 && handlers > lim.MaxHandlers {
				core.RejectCodef(core.RejectResourceLimit, "advice declares more than %d handler activations", lim.MaxHandlers)
			}
			if lim.MaxOpsPerHandler > 0 && n > lim.MaxOpsPerHandler {
				core.RejectCodef(core.RejectResourceLimit, "opcount %d for (%s,%s) exceeds limit %d", n, rid, hid, lim.MaxOpsPerHandler)
			}
			h := v.ids.hid(hid)
			eg.slotOf[dkey{r: r, h: h}] = int32(len(eg.slotList))
			eg.slotList = append(eg.slotList, eslot{rid: rid, hid: hid, h: h, base: uint32(next), n: n})
			next += uint64(n) + 2
			// Sizing the layout is where an inflated opcount total first
			// materializes; rejecting here is the poll-based node-budget
			// check moved to the earliest point it is decidable.
			if next-reqEvents > capLimit {
				core.RejectCodef(core.RejectResourceLimit, "execution graph exceeds %d nodes", capLimit)
			}
		}
	}
	eg.ovBase = uint32(next)
	eg.d = graph.NewDense(int(next))
	v.eg = eg
	v.opConsumed = make([]uint64, (next-uint64(eg.slotBase)+63)/64)
	v.executed = make([]bool, len(eg.slotList))
}

func (eg *egraph) barID(i int) uint32 { return uint32(i) }

// reqID / respID require rid to be in the trace (the caller has checked).
func (eg *egraph) reqID(rid core.RID) uint32  { return eg.reqBase + 2*eg.ridIdx[rid] }
func (eg *egraph) respID(rid core.RID) uint32 { return eg.reqID(rid) + 1 }

// slotNamed resolves an advised activation named by strings; ok is false
// when (rid, hid) has no slot. A pure lookup, safe from any phase.
func (eg *egraph) slotNamed(rid core.RID, hid core.HID) (int32, bool) {
	r, ok := eg.ids.ridOf[rid]
	if !ok {
		return 0, false
	}
	h, ok := eg.ids.hidOf[hid]
	if !ok {
		return 0, false
	}
	si, ok := eg.slotOf[dkey{r: r, h: h}]
	return si, ok
}

// hEndID is the handler-end node of slot si.
func (eg *egraph) hEndID(si int32) uint32 {
	sl := &eg.slotList[si]
	return sl.base + uint32(sl.n) + 1
}

// opIndex is an in-layout op node's offset from slotBase, which indexes the
// opConsumed bitmap; ok is false outside the layout.
func (eg *egraph) opIndex(o op) (uint32, bool) {
	si, ok := eg.slotOf[o.act()]
	if !ok {
		return 0, false
	}
	sl := &eg.slotList[si]
	if o.n < 0 || o.n > sl.n {
		return 0, false
	}
	return sl.base - eg.slotBase + uint32(o.n), true
}

// nodeOf resolves an op to its node, interning an overflow node when the op
// lies outside the layout — the only case that builds a gnode. Same
// ownership rule as intern.
func (eg *egraph) nodeOf(o op) uint32 {
	if i, ok := eg.opIndex(o); ok {
		return eg.slotBase + i
	}
	return eg.intern(opNode(eg.ids.rids[o.r], eg.ids.hids[o.h], o.n))
}

// hidOrder sorts one request's activated slots by hid and drops repeats: the
// order in which an emit enqueues the handlers it activates.
func (eg *egraph) hidOrder(set []int32) []int32 {
	sort.Slice(set, func(i, j int) bool { return eg.slotList[set[i]].hid < eg.slotList[set[j]].hid })
	out := set[:0]
	for _, si := range set {
		if len(out) == 0 || out[len(out)-1] != si {
			out = append(out, si)
		}
	}
	return out
}

// idOf resolves a gnode to its layout ID without interning. ok=false means
// the node is outside the layout (and possibly in the overflow table).
func (eg *egraph) idOf(n gnode) (uint32, bool) {
	switch n.kind {
	case kBar:
		if n.op >= 0 && n.op < eg.nEvents {
			return uint32(n.op), true
		}
	case kReq, kResp:
		if k, ok := eg.ridIdx[n.rid]; ok {
			id := eg.reqBase + 2*k
			if n.kind == kResp {
				id++
			}
			return id, true
		}
	case kOp, kHEnd:
		if si, ok := eg.slotNamed(n.rid, n.hid); ok {
			sl := eg.slotList[si]
			if n.kind == kHEnd {
				return sl.base + uint32(sl.n) + 1, true
			}
			if n.op >= 0 && n.op <= sl.n {
				return sl.base + uint32(n.op), true
			}
		}
	}
	return 0, false
}

// intern resolves a gnode to an ID, assigning an overflow ID when it lies
// outside the layout. Overflow nodes are init-level ops (init writes, carry
// identities) and carried prior-epoch writes referenced by reads-from edges.
// Interning mutates the overflow table, so only one goroutine at a time may
// call it: the handler/external-state phase owns it during preprocess, the
// coordinator during postprocess.
func (eg *egraph) intern(n gnode) uint32 {
	if id, ok := eg.idOf(n); ok {
		return id
	}
	if id, ok := eg.ovIDs[n]; ok {
		return id
	}
	id := eg.ovBase + uint32(len(eg.ovList))
	eg.ovIDs[n] = id
	eg.ovList = append(eg.ovList, n)
	return id
}

// name inverts an ID back to its gnode, for labels, cycle reports, and DOT
// dumps. Layout ranges invert arithmetically; the slot is found by binary
// search over the ascending slot bases.
func (eg *egraph) name(id uint32) gnode {
	if id < eg.reqBase {
		return barNode(int(id))
	}
	if id < eg.slotBase {
		k := (id - eg.reqBase) / 2
		rid := eg.ridList[k]
		if (id-eg.reqBase)%2 == 0 {
			return reqNode(rid)
		}
		return respNode(rid)
	}
	if id < eg.ovBase {
		si := sort.Search(len(eg.slotList), func(i int) bool { return eg.slotList[i].base > id }) - 1
		sl := eg.slotList[si]
		delta := int(id - sl.base)
		if delta == sl.n+1 {
			return hEndNode(sl.rid, sl.hid)
		}
		return opNode(sl.rid, sl.hid, delta)
	}
	return eg.ovList[id-eg.ovBase]
}

// esink is where a preprocess phase sends its graph mutations. With a nil
// shard it writes straight into the dense graph under the verifier's global
// budget polling — the sequential mode, byte-for-byte the old behavior. With
// a shard it buffers nodes and edges locally; the coordinator merges shards
// in phase order, so the final edge ordering is identical to a sequential
// run (see DESIGN.md §13).
type esink struct {
	v     *Verifier
	shard *eshard
}

// eshard is one phase's private buffer plus its contained rejection.
type eshard struct {
	nodes []uint32
	edges []uint32 // interleaved from,to
	pollN int
	rej   *core.Reject
}

func (s *esink) addNode(id uint32) {
	if s.shard != nil {
		s.shard.nodes = append(s.shard.nodes, id)
		return
	}
	s.v.eg.d.AddNode(id)
}

func (s *esink) addEdge(from, to uint32) {
	if s.shard != nil {
		s.shard.edges = append(s.shard.edges, from, to)
		return
	}
	s.v.eg.d.AddEdge(from, to)
}

// addEdgeN adds an edge between gnodes that may lie outside the layout,
// interning as needed. Callers must hold the interning ownership described
// at intern.
func (s *esink) addEdgeN(from, to gnode) {
	s.addEdge(s.v.eg.intern(from), s.v.eg.intern(to))
}

// poll is the phase-local budget check: sequential mode defers to the
// verifier's global poll; shard mode checks cancellation and the shard's own
// edge count (the only graph growth it can observe). The merge runs the full
// budget check over the assembled graph.
func (s *esink) poll() {
	if s.shard == nil {
		s.v.poll()
		return
	}
	s.shard.pollN++
	if s.shard.pollN%pollInterval != 0 {
		return
	}
	s.v.checkCtx()
	if lim := s.v.cfg.Limits; lim.MaxGraphEdges > 0 && len(s.shard.edges)/2 > lim.MaxGraphEdges {
		core.RejectCodef(core.RejectResourceLimit, "execution graph exceeds %d edges", lim.MaxGraphEdges)
	}
}
