package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// wikiMap is the wiki application's natural topology: partition by page
// id — create/render carry it as "id", comment as "page" — so every store
// key (page:<id>, comment:<id>:<n>) is owned by exactly one shard.
func wikiMap(shards int) shard.Map {
	return shard.Map{Shards: shards, KeyFields: []string{"id", "page"}}
}

// newGatewayServer exposes a local topology's gateway on a loopback
// listener and returns its base URL.
func newGatewayServer(t *testing.T, top *gateway.Local) string {
	t.Helper()
	ts := httptest.NewServer(top.Gateway.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// driveURL posts each request through a gateway (or collector) /invoke
// URL, requiring HTTP 200.
func driveURL(t *testing.T, url string, reqs []server.Request) {
	t.Helper()
	for _, r := range reqs {
		body, err := json.Marshal(map[string]any{"input": r.Input})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/invoke", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke: status %d", resp.StatusCode)
		}
	}
}

// shardedKey renders a ShardedResult's verdict-affecting content as one
// comparable string: per-shard verdict sequences, the merged verdict, and
// the summed deterministic work counters.
func shardedKey(t *testing.T, res ShardedResult) string {
	t.Helper()
	var b strings.Builder
	for _, rep := range res.Shards {
		fmt.Fprintf(&b, "shard%d[%s]:", rep.Shard, rep.Code)
		for _, v := range rep.Verdicts {
			fmt.Fprintf(&b, "%d=%s;", v.Epoch, v.Code)
		}
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "merge=%s conflicts=%d ", res.Merge.Code, len(res.Merge.Conflicts))
	fmt.Fprintf(&b, "stats=%+v", res.Stats)
	return b.String()
}

// TestShardedDifferentialLanes is the sharded differential: the same four
// shard logs audited with 1, 2, and 4 concurrent lanes produce
// bit-identical per-shard verdicts, merged verdict, and summed Stats —
// lane scheduling never reaches the verdict.
func TestShardedDifferentialLanes(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(4)
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root, Map: m, EpochRequests: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := newGatewayServer(t, top)
	driveURL(t, gwts, workload.Wiki(60, 7))
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	counters := top.Gateway.Counters()
	spread := 0
	for _, c := range counters {
		if c.Routed > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("workload landed on %d shard(s); want spread across several: %+v", spread, counters)
	}

	var want string
	for _, lanes := range []int{1, 2, 4} {
		sh, err := NewSharded(ShardedConfig{Root: root, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sh.Audit(context.Background())
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if !res.Accepted() {
			t.Fatalf("lanes=%d: honest sharded run not accepted: %+v", lanes, res.Merge)
		}
		if res.Stats.HandlersRerun == 0 {
			t.Fatalf("lanes=%d: no re-execution recorded in summed stats", lanes)
		}
		key := shardedKey(t, res)
		if want == "" {
			want = key
			continue
		}
		if key != want {
			t.Fatalf("lanes=%d diverged:\n%s\nwant:\n%s", lanes, key, want)
		}
	}
}

// TestShardedEmptyShards: shards the workload never touched — no epochs,
// nil carry — neither block nor taint the merged verdict.
func TestShardedEmptyShards(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(4)
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root, Map: m, EpochRequests: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := newGatewayServer(t, top)
	// Every request touches the same page, so exactly one shard serves.
	one := []server.Request{
		{Input: value.Normalize(value.Map("op", "create", "reqid", "r1", "id", "page-xx", "title", "T", "content", "C"))},
		{Input: value.Normalize(value.Map("op", "render", "reqid", "r2", "id", "page-xx"))},
		{Input: value.Normalize(value.Map("op", "comment", "reqid", "r3", "page", "page-xx", "text", "hi"))},
	}
	driveURL(t, gwts, one)
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	sh, err := NewSharded(ShardedConfig{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatalf("merge = %+v, want accept", res.Merge)
	}
	busy, empty := 0, 0
	for _, rep := range res.Shards {
		if rep.Status.Accepted > 0 {
			busy++
		} else if rep.Status.LastProcessed == 0 && rep.Code == "" {
			empty++
		}
	}
	if busy != 1 || empty != 3 {
		t.Fatalf("busy=%d empty=%d, want 1 busy and 3 empty shards", busy, empty)
	}
}

// TestShardedRoutingViolation: a request sitting in a shard's trace that
// the map routes elsewhere is detected by the lane's routing check and
// surfaces as ShardConflict — the trace is trusted, so the misrouting is
// evidence against the gateway, not a grading gap.
func TestShardedRoutingViolation(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(2)
	p0, p1 := pagesOnBothShards(t, m)

	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root, Map: m, EpochRequests: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bypass the gateway and misroute: shard 0's collector serves a page
	// the map assigns to shard 1.
	mis := []server.Request{
		{Input: value.Normalize(value.Map("op", "create", "reqid", "m1", "id", p0, "title", "T", "content", "C"))},
		{Input: value.Normalize(value.Map("op", "render", "reqid", "m2", "id", p1))},
	}
	ts0 := newLoopback(t, top.Collector(0))
	driveURL(t, ts0.URL, mis)
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	var seen []string
	sh, err := NewSharded(ShardedConfig{Root: root, Lanes: 1, OnVerdict: func(s int, v Verdict) {
		seen = append(seen, fmt.Sprintf("shard%d:%d=%s", s, v.Epoch, v.Code))
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Merge.Code != core.RejectShardConflict {
		t.Fatalf("merge code = %s, want ShardConflict: %+v", res.Merge.Code, res.Merge)
	}
	if res.Shards[0].Code != core.RejectShardConflict {
		t.Fatalf("shard 0 code = %s, want ShardConflict", res.Shards[0].Code)
	}
	// A routing halt is a verdict like any other: the callback sees it, once.
	if got := fmt.Sprint(seen); got != "[shard0:1=ShardConflict]" {
		t.Fatalf("OnVerdict saw %s, want the one routing verdict", got)
	}
}

// pagesOnBothShards finds one wiki page id homed on each shard of a
// two-shard map.
func pagesOnBothShards(t *testing.T, m shard.Map) (p0, p1 string) {
	t.Helper()
	for i := 0; i < 64 && (p0 == "" || p1 == ""); i++ {
		id := fmt.Sprintf("page-%02d", i)
		if s := m.ShardOf(value.Normalize(value.Map("op", "render", "reqid", "r", "id", id))); s == 0 && p0 == "" {
			p0 = id
		} else if s == 1 && p1 == "" {
			p1 = id
		}
	}
	if p0 == "" || p1 == "" {
		t.Fatal("could not find pages on both shards")
	}
	return p0, p1
}

// TestShardedSameEvidenceSameVerdict: a shard whose epoch 1 carries
// undecodable advice and whose epoch 2 holds a misrouted request reaches
// the same verdict however sealing interleaved with audit passes — routing
// and audit are checked per epoch, in epoch order, so epoch 1's
// MalformedAdvice halts the lane whether or not epoch 2 was already sealed.
// (Routing-checking every sealed epoch before auditing any graded the
// one-shot audit ShardConflict and the live one MalformedAdvice.)
func TestShardedSameEvidenceSameVerdict(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(2)
	p0, p1 := pagesOnBothShards(t, m)
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root, Map: m, EpochRequests: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts0 := newLoopback(t, top.Collector(0))
	render := func(rid, page string) server.Request {
		return server.Request{Input: value.Normalize(value.Map("op", "render", "reqid", rid, "id", page))}
	}

	stepwise, err := NewSharded(ShardedConfig{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	driveURL(t, ts0.URL, []server.Request{render("a1", p0), render("a2", p0)}) // epoch 1 seals
	if err := os.WriteFile(filepath.Join(shard.Dir(root, 0), "ep000001.advice"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := stepwise.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	driveURL(t, ts0.URL, []server.Request{render("b1", p1), render("b2", p0)}) // epoch 2 seals, misrouted
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stepwise.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := "shard0[MalformedAdvice]:1=MalformedAdvice; shard1[<uncoded>]: merge=MalformedAdvice conflicts=0 stats=" + fmt.Sprintf("%+v", verifier.Stats{})
	if got := shardedKey(t, stepwise.Result()); got != want {
		t.Errorf("stepwise:\n%s\nwant:\n%s", got, want)
	}
	for _, lanes := range []int{1, 2} {
		sh, err := NewSharded(ShardedConfig{Root: root, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sh.Audit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := shardedKey(t, res); got != want {
			t.Errorf("one-shot, lanes=%d:\n%s\nwant:\n%s", lanes, got, want)
		}
	}
}

// TestRejectionIsOneVerdict: a rejected epoch is listed once in the lane's
// report and reaches OnVerdict once — the halt only makes it sticky.
func TestRejectionIsOneVerdict(t *testing.T) {
	dir := t.TempDir()
	sealLog(t, harness.MOTDApp(), dir, requestsFor(t, harness.MOTDApp(), 30, 7), 10)
	path := filepath.Join(dir, "ep000002.advice")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] ^= 0x5a
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var seen []string
	sh, err := NewSharded(ShardedConfig{Root: dir, OnVerdict: func(s int, v Verdict) {
		seen = append(seen, fmt.Sprintf("%d=%s;", v.Epoch, v.Code))
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const want = "shard0[MalformedAdvice]:1=<uncoded>;2=MalformedAdvice; merge=MalformedAdvice"
	if got := shardedKey(t, res); !strings.HasPrefix(got, want) {
		t.Errorf("verdict key %s, want prefix %s", got, want)
	}
	if got := strings.Join(seen, ""); got != "1=<uncoded>;2=MalformedAdvice;" {
		t.Errorf("OnVerdict saw %s, want each epoch once", got)
	}
}

// TestShardedKillRestart: killing one shard's collector mid-epoch and
// restarting it leaves that shard's partial epoch Unauditable and the
// next epoch Fresh — so the combined verdict carries no false accusation,
// the surviving shards' audits are untouched, and the whole outcome is
// identical at every lane count.
func TestShardedKillRestart(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(2)
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root, Map: m, EpochRequests: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := newGatewayServer(t, top)
	reqs := workload.Wiki(40, 21)
	driveURL(t, gwts, reqs[:20])
	// Kill shard 1 the way a process death would: no seal, the active
	// epoch's tail abandoned on disk.
	if err := top.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := top.Restart(1); err != nil {
		t.Fatal(err)
	}
	driveURL(t, gwts, reqs[20:])
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	var want string
	sawUnauditable := false
	for _, lanes := range []int{1, 2} {
		sh, err := NewSharded(ShardedConfig{Root: root, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sh.Audit(context.Background())
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		for _, rep := range res.Shards {
			for _, v := range rep.Verdicts {
				switch v.Code {
				case "", core.RejectUnauditable:
				default:
					t.Fatalf("infrastructure fault manufactured an accusation: shard %d epoch %d %s: %s",
						rep.Shard, v.Epoch, v.Code, v.Reason)
				}
				if v.Code == core.RejectUnauditable {
					sawUnauditable = true
				}
			}
		}
		switch res.Merge.Code {
		case "", core.RejectUnauditable:
		default:
			t.Fatalf("merged verdict accuses after a crash: %+v", res.Merge)
		}
		key := shardedKey(t, res)
		if want == "" {
			want = key
		} else if key != want {
			t.Fatalf("lanes=%d diverged after crash:\n%s\nwant:\n%s", lanes, key, want)
		}
	}
	if !sawUnauditable {
		t.Log("crash fell on an epoch boundary; no partial epoch to grade Unauditable")
	}
}

// TestShardedCheckpointDirCreated: a CheckpointDir that does not exist
// yet is the constructor's to create — lanes must not burn their restart
// budget failing to write resume files into a missing parent.
func TestShardedCheckpointDirCreated(t *testing.T) {
	root := t.TempDir()
	m := wikiMap(2)
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root, Map: m, EpochRequests: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := newGatewayServer(t, top)
	driveURL(t, gwts, workload.Wiki(20, 5))
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	cpDir := filepath.Join(t.TempDir(), "nested", "cp")
	sh, err := NewSharded(ShardedConfig{Root: root, CheckpointDir: cpDir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatalf("honest run with fresh checkpoint dir rejected: %+v", res.Merge)
	}
	for i := 0; i < m.Shards; i++ {
		cp := filepath.Join(cpDir, fmt.Sprintf("checkpoint-shard-%02d.json", i))
		if _, err := os.Stat(cp); err != nil {
			t.Fatalf("lane %d wrote no resume file: %v", i, err)
		}
	}

	// Resuming from those files audits nothing new and still accepts.
	sh2, err := NewSharded(ShardedConfig{Root: root, CheckpointDir: cpDir})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sh2.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Accepted() {
		t.Fatalf("resume from checkpoints rejected: %+v", res2.Merge)
	}
	for _, rep := range res2.Shards {
		if got := len(rep.Verdicts); got != 0 {
			t.Fatalf("shard %d re-audited %d epochs on resume; want 0", rep.Shard, got)
		}
	}
}
