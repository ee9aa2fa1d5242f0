// White-box tests for the verifier's most safety-critical internals: the
// time-precedence construction (every response that chronologically precedes
// a request must be ordered before it in G, with only O(n) edges) and the
// version-dictionary climb (FindNearestRPrecedingWrite, §4.2).
package verifier

import (
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/trace"
)

func precedenceVerifier(events []trace.Event) *Verifier {
	v := New(Config{})
	v.tr = &trace.Trace{Events: events}
	v.adv = &advice.Advice{}
	for _, e := range events {
		v.inTrace[core.RID(e.RID)] = true
	}
	v.buildLayout()
	v.addTimePrecedenceEdges(&esink{v: v})
	return v
}

// reach reports whether a's node reaches b's node in the interned graph.
func (v *Verifier) reach(from, to gnode) bool {
	a, ok := v.eg.idOf(from)
	if !ok {
		return false
	}
	b, ok := v.eg.idOf(to)
	if !ok {
		return false
	}
	return v.eg.d.Reachable(a, b)
}

func TestTimePrecedenceCoversAllPairs(t *testing.T) {
	// r1 finishes, then r2 and r3 arrive concurrently, r2 finishes before r4
	// arrives.
	ev := []trace.Event{
		{Kind: trace.Req, RID: "r1"},
		{Kind: trace.Resp, RID: "r1"},
		{Kind: trace.Req, RID: "r2"},
		{Kind: trace.Req, RID: "r3"},
		{Kind: trace.Resp, RID: "r2"},
		{Kind: trace.Req, RID: "r4"},
		{Kind: trace.Resp, RID: "r3"},
		{Kind: trace.Resp, RID: "r4"},
	}
	v := precedenceVerifier(ev)
	mustReach := [][2]core.RID{
		{"r1", "r2"}, {"r1", "r3"}, {"r1", "r4"}, {"r2", "r4"},
	}
	for _, p := range mustReach {
		if !v.reach(respNode(p[0]), reqNode(p[1])) {
			t.Errorf("RESP %s must precede REQ %s in G", p[0], p[1])
		}
	}
	mustNotReach := [][2]core.RID{
		{"r2", "r3"}, // r3 arrived before r2's response
		{"r3", "r4"}, // r4 arrived before r3's response
		{"r4", "r1"},
	}
	for _, p := range mustNotReach {
		if v.reach(respNode(p[0]), reqNode(p[1])) {
			t.Errorf("RESP %s must NOT precede REQ %s in G", p[0], p[1])
		}
	}
	// No request node may ever reach another request node through barriers
	// alone (requests are unordered among themselves).
	if v.reach(reqNode("r2"), reqNode("r3")) || v.reach(reqNode("r3"), reqNode("r2")) {
		t.Error("concurrent requests ordered by the barrier chain")
	}
}

func TestTimePrecedenceEdgeCountLinear(t *testing.T) {
	var ev []trace.Event
	const n = 500
	for i := 0; i < n; i++ {
		rid := core.RID(rune('a'+i%26)) + core.RID(rune('a'+(i/26)%26)) + core.RID(rune('a'+i/676))
		ev = append(ev,
			trace.Event{Kind: trace.Req, RID: string(rid)},
			trace.Event{Kind: trace.Resp, RID: string(rid)})
	}
	v := precedenceVerifier(ev)
	// O(n) construction: at most ~3 edges per event, never O(n²).
	if v.eg.d.NumEdges() > 6*n {
		t.Errorf("time precedence used %d edges for %d events", v.eg.d.NumEdges(), 2*n)
	}
	// Spot check transitivity across the whole chain.
	first := core.RID(ev[0].RID)
	last := core.RID(ev[len(ev)-1].RID)
	if !v.reach(respNode(first), reqNode(last)) {
		t.Error("first response does not reach last request")
	}
}

func TestFindNearestClimbsTree(t *testing.T) {
	vv := &vvar{
		id:       "x",
		dict:     map[dkey][]dictEntry{},
		readObs:  map[core.Op][]core.Op{},
		writeObs: map[core.Op]core.Op{},
	}
	// Tree: init → root → {childA, childB}; writes at init(1), root(3), and
	// childA(2).
	parentOf := map[core.HID]core.HID{
		"root":   core.InitHID,
		"childA": "root",
		"childB": "root",
	}
	g := &groupExec{v: New(Config{}), parentOf: parentOf}
	vv.dict[dkey{core.InitRID, core.InitHID}] = []dictEntry{{num: 1, val: "init"}}
	vv.dict[dkey{"r1", "root"}] = []dictEntry{{num: 3, val: "root3"}}
	vv.dict[dkey{"r1", "childA"}] = []dictEntry{{num: 2, val: "a2"}}

	cases := []struct {
		op   core.Op
		want any
	}{
		// Same handler, earlier op.
		{core.Op{RID: "r1", HID: "childA", Num: 5}, "a2"},
		// Same handler, but before its own write: parent's write wins.
		{core.Op{RID: "r1", HID: "childA", Num: 1}, "root3"},
		// Sibling without writes: parent's write.
		{core.Op{RID: "r1", HID: "childB", Num: 1}, "root3"},
		// Root before its own write: the init value.
		{core.Op{RID: "r1", HID: "root", Num: 2}, "init"},
		// Root after its write.
		{core.Op{RID: "r1", HID: "root", Num: 9}, "root3"},
	}
	for _, c := range cases {
		_, val, found := g.findNearestRPrecedingWrite(vv, c.op)
		if !found {
			t.Errorf("%v: no write found", c.op)
			continue
		}
		if val != c.want {
			t.Errorf("%v: read %v, want %v", c.op, val, c.want)
		}
	}

	// A different request sees only init through the climb (cross-request
	// feeding goes through logs, never the dictionary).
	_, val, found := g.findNearestRPrecedingWrite(vv, core.Op{RID: "r2", HID: "root", Num: 1})
	if !found || val != "init" {
		t.Errorf("other request read %v (found=%v), want init", val, found)
	}
}

func TestGnodeLabelShapes(t *testing.T) {
	labels := []string{
		gnodeLabel(reqNode("r1")),
		gnodeLabel(respNode("r1")),
		gnodeLabel(barNode(3)),
		gnodeLabel(opNode("r1", "0123456789abcdef", 2)),
		gnodeLabel(hEndNode("r1", "0123456789abcdef")),
	}
	seen := map[string]bool{}
	for _, l := range labels {
		if l == "" {
			t.Error("empty gnode label")
		}
		if seen[l] {
			t.Errorf("duplicate label %q", l)
		}
		seen[l] = true
	}
}
