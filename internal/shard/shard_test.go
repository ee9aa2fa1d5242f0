package shard

import (
	"fmt"
	"path/filepath"
	"testing"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

func TestValidate(t *testing.T) {
	if err := (Map{Shards: 0}).Validate(); err == nil {
		t.Fatal("0-shard map validated")
	}
	if err := (Map{Shards: -2}).Validate(); err == nil {
		t.Fatal("negative-shard map validated")
	}
	if err := (Map{Shards: 1}).Validate(); err != nil {
		t.Fatalf("1-shard map rejected: %v", err)
	}
}

// TestLocalityKey: the first present KeyFields entry wins; inputs missing
// every field (or not map-shaped) hash whole.
func TestLocalityKey(t *testing.T) {
	m := Map{Shards: 4, KeyFields: []string{"id", "page"}}
	render := value.Normalize(value.Map("op", "render", "id", "page-03"))
	comment := value.Normalize(value.Map("op", "comment", "page", "page-03", "text", "hi"))
	if got := m.LocalityKey(render); value.Digest(got) != value.Digest(value.Normalize("page-03")) {
		t.Fatalf("locality key of render = %v, want page-03", got)
	}
	// Two operations touching the same page extract the same key — and so
	// land on the same shard, which is what keeps that page's store keys
	// owned by one shard.
	if m.ShardOf(render) != m.ShardOf(comment) {
		t.Fatal("render and comment on the same page routed to different shards")
	}
	scalar := value.Normalize("just-a-string")
	if got := m.LocalityKey(scalar); value.Digest(got) != value.Digest(scalar) {
		t.Fatalf("scalar locality key = %v, want the input itself", got)
	}
	noField := value.Normalize(value.Map("op", "stats"))
	if got := m.LocalityKey(noField); value.Digest(got) != value.Digest(noField) {
		t.Fatalf("field-less locality key = %v, want the whole input", got)
	}
}

// TestShardOfStableAndInRange: assignment is a pure function of the input
// (recomputable by any auditor) and always lands in range.
func TestShardOfStableAndInRange(t *testing.T) {
	m := Map{Shards: 4, KeyFields: []string{"id", "page"}}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		in := value.Normalize(value.Map("op", "render", "id", pageID(i)))
		s := m.ShardOf(in)
		if s < 0 || s >= m.Shards {
			t.Fatalf("shard %d out of range", s)
		}
		if again := m.ShardOf(in); again != s {
			t.Fatalf("ShardOf not stable: %d then %d", s, again)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 distinct pages all hashed to %d shard(s); want spread", len(seen))
	}
	one := Map{Shards: 1}
	if s := one.ShardOf(value.Normalize("anything")); s != 0 {
		t.Fatalf("1-shard map assigned shard %d", s)
	}
}

func pageID(i int) string { return fmt.Sprintf("page-%02d", i) }

func TestSharedKey(t *testing.T) {
	m := Map{Shards: 2, SharedKeyPrefixes: []string{"config:", "counter:"}}
	if !m.SharedKey("config:limits") || !m.SharedKey("counter:served") {
		t.Fatal("prefixed keys not shared")
	}
	if m.SharedKey("page:home") || m.SharedKey("conf") {
		t.Fatal("unprefixed keys shared")
	}
}

// TestCheckRouting: every REQ in a shard's trace must belong there by the
// map's own hash; the first misrouted request is named.
func TestCheckRouting(t *testing.T) {
	m := Map{Shards: 4, KeyFields: []string{"id"}}
	// Find two inputs the map routes to different shards.
	a := value.Normalize(value.Map("op", "render", "id", "page-00"))
	var b value.V
	for i := 1; i < 64; i++ {
		cand := value.Normalize(value.Map("op", "render", "id", pageID(i)))
		if m.ShardOf(cand) != m.ShardOf(a) {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("could not find inputs on two shards")
	}
	home := m.ShardOf(a)
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.Req, RID: "r1", Data: a},
		{Kind: trace.Resp, RID: "r1", Data: value.Normalize("ok")},
	}}
	if err := m.CheckRouting(home, tr); err != nil {
		t.Fatalf("well-routed trace flagged: %v", err)
	}
	// Responses are not routing evidence — only REQ arrivals are checked —
	// so a misrouted RESP payload alone cannot fire.
	tr.Events = append(tr.Events, trace.Event{Kind: trace.Req, RID: "r2", Data: b})
	if err := m.CheckRouting(home, tr); err == nil {
		t.Fatal("misrouted request not flagged")
	}
	if err := m.CheckRouting(-1, tr); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := m.CheckRouting(m.Shards, tr); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func TestDirsAndMapRoundTrip(t *testing.T) {
	root := t.TempDir()
	m := Map{Shards: 3, KeyFields: []string{"id", "page"}, SharedKeyPrefixes: []string{"config:"}}
	if got := Dir(root, 2); got != filepath.Join(root, "shard-02") {
		t.Fatalf("Dir = %q", got)
	}
	dirs := m.Dirs(root)
	if len(dirs) != 3 || dirs[0] != filepath.Join(root, "shard-00") {
		t.Fatalf("Dirs = %v", dirs)
	}
	if err := WriteMap(nil, root, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMap(root)
	if err != nil {
		t.Fatal(err)
	}
	if back.Shards != m.Shards || len(back.KeyFields) != 2 || back.KeyFields[0] != "id" ||
		len(back.SharedKeyPrefixes) != 1 || back.SharedKeyPrefixes[0] != "config:" {
		t.Fatalf("round trip = %+v", back)
	}
	// The map is evidence: a restart with the same map rewrites nothing, a
	// restart with another is refused and the old map stays.
	in := iofault.NewInjector(nil)
	if err := WriteMap(in, root, m); err != nil {
		t.Fatal(err)
	}
	if c := in.Counts(); c[iofault.CallWrite] != 0 || c[iofault.CallRename] != 0 {
		t.Fatalf("same-map restart wrote: %v", c)
	}
	if err := WriteMap(in, root, Map{Shards: 4, KeyFields: m.KeyFields}); err == nil {
		t.Fatal("a 3-shard topology root was relabelled 4-shard")
	}
	if back, err = ReadMap(root); err != nil || back.Shards != 3 {
		t.Fatalf("refused relabel disturbed the map: %+v, %v", back, err)
	}
	if _, err := ReadMap(t.TempDir()); err == nil {
		t.Fatal("ReadMap on an empty dir succeeded")
	}
	if err := WriteMap(nil, t.TempDir(), Map{Shards: 0}); err == nil {
		t.Fatal("WriteMap persisted an invalid map")
	}
}
