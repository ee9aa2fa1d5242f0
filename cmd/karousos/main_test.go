package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/chaos"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/gateway"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// TestMain doubles as the collector executable: the crash test spawns
// os.Executable() — this very test binary — as `karousos serve`, which is
// dispatched here before the test framework ever parses flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// cli runs the command in-process.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// has reports whether s contains every one of subs.
func has(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// drive serves n wiki requests through url one at a time, requiring 200s.
func drive(t *testing.T, url string, n int, seed int64) {
	t.Helper()
	res, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: url}, workload.Wiki(n, seed))
	if err != nil || res.Served != n {
		t.Fatalf("served %d of %d: %+v, %v", res.Served, n, res, err)
	}
}

// statusReport is the status subcommand's JSON.
type statusReport struct {
	SealedEpochs int  `json:"sealedEpochs"`
	Pending      *int `json:"pending"`
	Shards       []struct {
		App           string               `json:"app"`
		SealedEpochs  int                  `json:"sealedEpochs"`
		LastProcessed uint64               `json:"lastProcessed"`
		Pending       int                  `json:"pending"`
		Memo          *auditd.MemoCounters `json:"memo"`
	} `json:"shards"`
}

// TestPipelineAuditStatusWorkflow exercises the scriptable surface on a
// bare log: the one-shard pipeline scenario exits 0 and leaves its log
// behind, the log then audits clean as a one-shard topology (the checkpoint
// advancing), a re-audit finds nothing pending, and status reports
// progress — correctly even when the auditor is behind.
func TestPipelineAuditStatusWorkflow(t *testing.T) {
	dir := t.TempDir()
	code, out, errs := cli("chaos", "-scenario", "pipeline", "-app", "motd", "-seed", "7", "-dir", dir)
	if code != 0 || !has(out, "CHAOS OK", "served=200", "sealed=4", "accepted=4", "rejected=0") {
		t.Fatalf("pipeline exit %d: %s / %s", code, out, errs)
	}
	log := filepath.Join(dir, "shards", "shard-00")

	cp := filepath.Join(t.TempDir(), "cp")
	code, out, errs = cli("audit", "-dir", log, "-checkpoint", cp)
	if code != 0 || !has(out, "through epoch 4, accepted", "AUDIT ACCEPTED: 1 shards, 4 epochs this run") {
		t.Fatalf("audit exit %d: %s / %s", code, out, errs)
	}
	if code, out, _ = cli("audit", "-dir", log, "-checkpoint", cp, "-memo"); code != 0 || !has(out, "0 epochs this run", "memo:") {
		t.Fatalf("re-audit exit %d: %s", code, out)
	}

	status := func(cp string) statusReport {
		t.Helper()
		code, out, errs := cli("status", "-dir", log, "-checkpoint", cp)
		var st statusReport
		if code != 0 || json.Unmarshal([]byte(out), &st) != nil || len(st.Shards) != 1 || st.Pending == nil {
			t.Fatalf("status exit %d: %s / %s", code, out, errs)
		}
		return st
	}
	if st := status(cp); st.Shards[0].App != "motd" || st.SealedEpochs != 4 || st.Shards[0].LastProcessed != 4 || *st.Pending != 0 || st.Shards[0].Memo != nil {
		t.Fatalf("status = %+v", st)
	}
	// A -memo audit into a fresh checkpoint directory checkpoints its memo
	// counters, and status prints them as the audit reported them; the
	// checkpoint of the memo-off audit above carries none.
	memoCP := filepath.Join(t.TempDir(), "cp")
	code, out, errs = cli("audit", "-dir", log, "-checkpoint", memoCP, "-memo")
	var hits, misses, evictions int
	if i := strings.Index(out, "(memo: "); code != 0 || i < 0 {
		t.Fatalf("memo audit exit %d: %s / %s", code, out, errs)
	} else if _, err := fmt.Sscanf(out[i:], "(memo: %d hits, %d misses, %d evictions)", &hits, &misses, &evictions); err != nil {
		t.Fatalf("memo audit summary %q: %v", out, err)
	}
	if st := status(memoCP); st.Shards[0].Memo == nil || *st.Shards[0].Memo != (auditd.MemoCounters{Hits: hits, Misses: misses, Evictions: evictions}) || misses == 0 {
		t.Fatalf("status after a memo audit = %+v, want memo {%d %d %d} with misses > 0", st.Shards[0].Memo, hits, misses, evictions)
	}
	// An auditor two epochs behind has two pending, and one that never ran
	// has all four — whatever the first sealed seq is.
	behind := t.TempDir()
	if err := os.WriteFile(filepath.Join(behind, "checkpoint-shard-00.json"), []byte(`{"lastAccepted":1,"lastProcessed":2,"unauditable":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if st := status(behind); st.Shards[0].LastProcessed != 2 || *st.Pending != 2 {
		t.Fatalf("status behind = %+v", st)
	}
	if st := status(t.TempDir()); *st.Pending != 4 || st.Shards[0].Memo != nil {
		t.Fatalf("status with no checkpoint = %+v", st)
	}
}

// TestSidecarWithModeReopens: collectors before the advice mode was fixed to
// Karousos wrote meta.json with a "mode" field. Such a log reopens through
// the sidecar pin unchanged, serves more requests, and audits clean.
func TestSidecarWithModeReopens(t *testing.T) {
	log := pipelineLog(t, "motd")
	old := []byte(`{"app":"motd","mode":"karousos"}`)
	metaPath := filepath.Join(log, collectorhttp.MetaFile)
	if err := os.WriteFile(metaPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	col, err := collectorhttp.New(collectorhttp.Config{Spec: harness.MOTDApp(), Dir: log, EpochRequests: 10})
	if err != nil {
		t.Fatalf("reopening a log with a mode in its sidecar: %v", err)
	}
	ts := httptest.NewServer(col.Handler())
	res, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: ts.URL}, workload.MOTD(20, workload.Mixed, 5))
	ts.Close()
	if err != nil || res.Served != 20 {
		t.Fatalf("served %d of 20: %v", res.Served, err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(metaPath); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("sidecar after reopening = %s, %v; want it untouched", got, err)
	}
	if code, out, errs := cli("audit", "-dir", log); code != 0 || !has(out, "through epoch 6, accepted", "6 epochs this run") {
		t.Fatalf("audit exit %d: %s / %s", code, out, errs)
	}
}

// pipelineLog runs the one-shard pipeline scenario for app into a fresh
// directory and returns its 4-epoch log.
func pipelineLog(t *testing.T, app string) string {
	t.Helper()
	dir := t.TempDir()
	if code, out, errs := cli("chaos", "-scenario", "pipeline", "-app", app, "-dir", dir); code != 0 || !has(out, "sealed=4") {
		t.Fatalf("pipeline exit %d: %s / %s", code, out, errs)
	}
	return filepath.Join(dir, "shards", "shard-00")
}

// rebuildLog copies every sealed epoch of src into a fresh log through the
// collector's own append-and-seal path, letting edit rewrite an epoch's
// trace and advice on the way, so each manifest digests what the collector
// would have recorded.
func rebuildLog(t *testing.T, src string, edit func(seq uint64, tr *trace.Trace, blob []byte) []byte) string {
	t.Helper()
	dst := t.TempDir()
	meta, err := os.ReadFile(filepath.Join(src, collectorhttp.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, collectorhttp.MetaFile), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	manifests, err := epochlog.ListSealed(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := epochlog.Open(dst, epochlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, m := range manifests {
		tr, blob, _, err := epochlog.ReadSealed(src, m.Seq, epochlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blob = edit(m.Seq, tr, blob)
		for _, e := range tr.Events {
			if err := out.AppendEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := out.AppendAdvice(blob); err != nil {
			t.Fatal(err)
		}
		if _, err := out.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAuditRejectsCorruptEpoch: each lie about epoch 2 of a motd log makes
// the audit exit 2 with the bare reason code on stdout and a banner that
// names epoch 2 — one-shot and, at the first rejection, under -follow too.
// A corrupted advice file decodes to nothing (MalformedAdvice); a forged
// response is an OutputMismatch; advice that decodes but drops a log entry
// must be caught by the verifier proper, so its code is structured and not
// MalformedAdvice. Byte-level damage from the faultinject catalogue fails to
// decode; inflated op counts run past the verifier's limits.
func TestAuditRejectsCorruptEpoch(t *testing.T) {
	src := pipelineLog(t, "motd")
	for _, row := range []struct {
		name string
		// epoch2 rewrites epoch 2 while the log is rebuilt; it returns the
		// advice blob to record.
		epoch2 func(t *testing.T, tr *trace.Trace, blob []byte) []byte
		// onDisk, when set, corrupts the rebuilt log after sealing.
		onDisk func(t *testing.T, log string)
		// want is the bare reason code; "" accepts any structured code but
		// MalformedAdvice.
		want string
	}{
		{
			name: "advice file corrupted after sealing",
			onDisk: func(t *testing.T, log string) {
				path := filepath.Join(log, "ep000002.advice")
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
			},
			want: "MalformedAdvice",
		},
		{
			name: "forged response",
			epoch2: func(t *testing.T, tr *trace.Trace, blob []byte) []byte {
				for i := range tr.Events {
					if tr.Events[i].Kind == trace.Resp {
						tr.Events[i].Data = value.Map("status", "tampered")
						return blob
					}
				}
				t.Fatal("epoch 2 has no response to forge")
				return nil
			},
			want: "OutputMismatch",
		},
		{
			name:   "advice missing a log entry",
			epoch2: adviceFault("drop-log-entry:2"),
		},
		// The remaining operators of the faultinject catalogue that the
		// advice sweep exercises: byte-level damage and a semantic lie.
		{name: "advice truncated", epoch2: adviceFault("truncate:3"), want: "MalformedAdvice"},
		{name: "advice bit flipped", epoch2: adviceFault("bit-flip:5"), want: "MalformedAdvice"},
		{name: "advice length inflated", epoch2: adviceFault("length-inflate:9"), want: "MalformedAdvice"},
		{name: "advice spliced", epoch2: adviceFault("splice:4"), want: "MalformedAdvice"},
		{name: "advice op count inflated", epoch2: adviceFault("opcount-inflate:1"), want: "ResourceLimit"},
	} {
		t.Run(row.name, func(t *testing.T) {
			log := rebuildLog(t, src, func(seq uint64, tr *trace.Trace, blob []byte) []byte {
				if seq != 2 || row.epoch2 == nil {
					return blob
				}
				return row.epoch2(t, tr, blob)
			})
			if row.onDisk != nil {
				row.onDisk(t, log)
			}
			for _, extra := range [][]string{nil, {"-follow"}} {
				code, out, errs := cli(append([]string{"audit", "-dir", log, "-reason-code"}, extra...)...)
				if code != 2 {
					t.Fatalf("audit %v exit %d: %s / %s", extra, code, out, errs)
				}
				got := strings.TrimSpace(out)
				t.Logf("audit %v rejected [%s]", extra, got)
				if row.want != "" && got != row.want || row.want == "" && (got == "" || got == "MalformedAdvice" || strings.ContainsAny(got, " \n")) {
					t.Fatalf("audit %v reason code output %q, want %q", extra, out, row.want)
				}
				if !has(errs, "AUDIT REJECTED ["+got+"]", "epoch 2 rejected") {
					t.Fatalf("audit %v rejection did not name the epoch: %s", extra, errs)
				}
			}
		})
	}
}

// adviceFault passes epoch 2's advice through the faultinject operator spec
// names while the log is rebuilt.
func adviceFault(spec string) func(*testing.T, *trace.Trace, []byte) []byte {
	return func(t *testing.T, _ *trace.Trace, blob []byte) []byte {
		op, seed, err := faultinject.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if blob, err = op.Apply(seed, blob); err != nil {
			t.Fatal(err)
		}
		return blob
	}
}

// TestAuditGraph: -graph writes one DOT file per graded epoch under the
// shard's directory, and the same evidence gives the same graph bytes at
// every worker count.
func TestAuditGraph(t *testing.T) {
	log := pipelineLog(t, "wiki")
	var graphs [][]string
	for _, w := range []string{"1", "4"} {
		dir := filepath.Join(t.TempDir(), "g")
		if code, out, errs := cli("audit", "-dir", log, "-workers", w, "-graph", dir); code != 0 || !has(out, "4 epochs this run") {
			t.Fatalf("-workers %s: audit exit %d: %s / %s", w, code, out, errs)
		}
		var dots []string
		for seq := 1; seq <= 4; seq++ {
			blob, err := os.ReadFile(filepath.Join(dir, "shard-00", fmt.Sprintf("ep%06d.dot", seq)))
			if err != nil || !bytes.HasPrefix(blob, []byte("digraph")) {
				t.Fatalf("-workers %s: epoch %d graph: %v %.40q", w, seq, err, blob)
			}
			dots = append(dots, string(blob))
		}
		if entries, _ := os.ReadDir(filepath.Join(dir, "shard-00")); len(entries) != 4 {
			t.Fatalf("-workers %s: %d graph files, want 4", w, len(entries))
		}
		graphs = append(graphs, dots)
	}
	for i := range graphs[0] {
		if graphs[0][i] != graphs[1][i] {
			t.Errorf("epoch %d graph differs between -workers 1 and 4", i+1)
		}
	}
}

// TestChaosCmd: the one chaos subcommand runs built-ins by name — the
// single-collector acceptance scenario, a sharded shard kill and the
// fault-free sharded pipeline alike — and scripted scenario files; unknown
// names and malformed scripts are infrastructure errors, not verdicts.
func TestChaosCmd(t *testing.T) {
	code, out, errs := cli("chaos", "-app", "stacks", "-seed", "11", "-dir", filepath.Join(t.TempDir(), "chaos"))
	if code != 0 || !has(out, "CHAOS OK", "app=stacks", "unauditable=1") {
		t.Fatalf("chaos exit %d: %s / %s", code, out, errs)
	}
	code, out, errs = cli("chaos", "-scenario", "shard-kill", "-seed", "23")
	if code != 0 || !has(out, "CHAOS OK", "shards=4", "unauditable=1", "rejected=0", "merge=accepted") {
		t.Fatalf("shard-kill chaos exit %d: %s / %s", code, out, errs)
	}
	// The sharded pipeline leaves a readable topology behind, which then
	// audits clean again from its root.
	dir := t.TempDir()
	code, out, errs = cli("chaos", "-scenario", "pipeline-sharded", "-seed", "7", "-dir", dir)
	if code != 0 || !has(out, "CHAOS OK", "shards=4", "served=120", "rejected=0", "merge=accepted") {
		t.Fatalf("sharded pipeline exit %d: %s / %s", code, out, errs)
	}
	if m, err := shard.ReadMap(filepath.Join(dir, "shards")); err != nil || m.Shards != 4 {
		t.Fatalf("pipeline left no readable 4-shard map: %+v, %v", m, err)
	}
	if code, out, errs = cli("audit", "-dir", filepath.Join(dir, "shards"), "-lanes", "2"); code != 0 || !has(out, "AUDIT ACCEPTED: 4 shards") {
		t.Fatalf("audit of the pipeline's topology exit %d: %s / %s", code, out, errs)
	}

	// The self-contained overload story: a burst past a tight admission
	// window (and one with slow clients mixed in) sheds, seals and re-audits
	// clean at both worker counts.
	for _, args := range [][]string{
		{"chaos", "-scenario", "overload-burst", "-app", "motd", "-seed", "9"},
		{"chaos", "-scenario", "overload-slow-client", "-app", "stacks", "-seed", "13"},
	} {
		if code, out, errs = cli(args...); code != 0 || !has(out, "CHAOS OK", "shards=1", "degraded=0", "unauditable=0", "rejected=0", "merge=accepted") {
			t.Fatalf("%v exit %d: %s / %s", args, code, out, errs)
		}
	}

	// A scripted scenario from a JSON file: honest run, no faults.
	sc := filepath.Join(t.TempDir(), "sc.json")
	blob := `{"topology":{"app":"motd","shards":1,"epochRequests":10},"load":{"seed":3,"requests":20}}`
	if err := os.WriteFile(sc, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs = cli("chaos", "-scenario-file", sc, "-v")
	if code != 0 || !has(out, `"rejected": 0`, "unauditable=0") {
		t.Fatalf("scripted chaos exit %d: %s / %s", code, out, errs)
	}
}

// TestShardedAuditCmd: a topology driven through the gateway audits clean
// from its root, the checkpoint directory makes a re-audit a no-op that
// still accepts, and a wrong -shards pin is an error.
func TestShardedAuditCmd(t *testing.T) {
	root := filepath.Join(t.TempDir(), "shards")
	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec: harness.WikiApp(), Root: root,
		Map:           shard.Map{Shards: 2, KeyFields: []string{"id", "page"}},
		EpochRequests: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(top.Gateway.Handler())
	defer ts.Close()
	drive(t, ts.URL, 30, 9)
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}

	cpDir := t.TempDir()
	code, out, errs := cli("audit", "-shards", "2", "-dir", root, "-checkpoint", cpDir)
	if code != 0 || !has(out, "AUDIT ACCEPTED: 2 shards") {
		t.Fatalf("sharded audit exit %d: %s / %s", code, out, errs)
	}
	// Per-shard checkpoints advanced: the re-audit grades nothing new but
	// still accepts the topology.
	code, out, errs = cli("audit", "-dir", root, "-checkpoint", cpDir, "-lanes", "1")
	if code != 0 || !has(out, "AUDIT ACCEPTED: 2 shards, 0 epochs this run") {
		t.Fatalf("sharded re-audit exit %d: %s / %s", code, out, errs)
	}
	code, out, _ = cli("status", "-dir", root, "-checkpoint", cpDir)
	var st statusReport
	if code != 0 || json.Unmarshal([]byte(out), &st) != nil || len(st.Shards) != 2 || st.Pending == nil || *st.Pending != 0 || st.SealedEpochs == 0 {
		t.Fatalf("topology status exit %d: %s", code, out)
	}
	if code, _, errs := cli("audit", "-shards", "3", "-dir", root); code != 1 {
		t.Fatalf("wrong -shards pin exit %d: %s", code, errs)
	}
}

// TestLoadCmd covers the external client's surface against in-process
// targets: the JSON ledger and the recurring steady-state mix against a bare
// collector, and a gateway's answers split per shard.
func TestLoadCmd(t *testing.T) {
	collector := func(app string) string {
		t.Helper()
		spec, err := harness.SpecByName(app)
		if err != nil {
			t.Fatal(err)
		}
		col, err := collectorhttp.New(collectorhttp.Config{Spec: spec, Dir: t.TempDir(), EpochRequests: 8})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(col.Handler())
		t.Cleanup(func() { ts.Close(); col.Close() })
		return ts.URL
	}
	code, out, errs := cli("load", "-url", collector("feeds"), "-app", "feeds", "-n", "8", "-json")
	if code != 0 || !has(out, `"offered": 8`, `"served": 8`, "LOAD OK") {
		t.Fatalf("json exit %d: %s / %s", code, out, errs)
	}
	code, out, errs = cli("load", "-url", collector("motd"), "-app", "motd", "-n", "32", "-seed", "3", "-repeat-mix", "0.8", "-outstanding", "1")
	if code != 0 || !has(out, "offered 32", "ok 32", "LOAD OK") {
		t.Fatalf("repeat-mix exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}

	top, err := gateway.NewLocal(gateway.LocalConfig{
		Spec:          harness.WikiApp(),
		Root:          t.TempDir(),
		Map:           shard.Map{Shards: 2, KeyFields: []string{"id", "page"}},
		EpochRequests: 10,
		Seed:          7,
		Limits:        verifier.DefaultLimits(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	ts := httptest.NewServer(top.Handler())
	defer ts.Close()
	code, out, errs = cli("load", "-url", ts.URL, "-app", "wiki", "-n", "30", "-seed", "7", "-json")
	if code != 0 {
		t.Fatalf("gateway exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	var res loadgen.Result
	// The ledger JSON is followed by the OK banner; decode the first value.
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&res); err != nil {
		t.Fatalf("bad json: %v\n%s", err, out)
	}
	if res.Served != 30 || len(res.Shards) != 2 || res.Shards["0"] == nil || res.Shards["1"] == nil ||
		res.Shards["0"].Served+res.Shards["1"].Served != 30 {
		t.Fatalf("per-shard ledger: %+v / %+v", res, res.Shards)
	}
}

// freePorts reserves n distinct loopback ports by binding :0 and closing.
// Another process may take a port before the collector binds it; the
// collector then fails on bind and the readiness wait reports it.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// collectorProc is one `karousos serve` process: a re-exec of this test
// binary, which TestMain dispatches to the serve subcommand.
type collectorProc struct {
	cmd    *exec.Cmd
	out    bytes.Buffer
	exited chan error
}

// startCollector starts `karousos serve` with args and waits until it
// reports ready at url.
func startCollector(t *testing.T, url string, args ...string) *collectorProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &collectorProc{cmd: exec.Command(exe, append([]string{"serve"}, args...)...), exited: make(chan error, 1)}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.exited <- p.cmd.Wait() }()
	t.Cleanup(func() {
		p.cmd.Process.Kill() // a no-op once the process has exited
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-p.exited:
			t.Fatalf("collector exited before it was ready: %v\n%s", err, p.out.String())
		default:
		}
		if resp, err := http.Get(url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector not ready after 30s:\n%s", p.out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop sends sig and waits for the process to exit, returning Wait's error.
func (p *collectorProc) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("collector did not exit 30s after %v:\n%s", sig, p.out.String())
		return nil
	}
}

// TestCollectorProcessCrash: a real collector process SIGKILLed mid-epoch
// and restarted on the same directory loses nothing it acknowledged. The
// killed incarnation's open epoch seals degraded at the next boot, so the
// audit grades exactly that epoch Unauditable and accepts the rest, and
// every request a client saw 200 for is in a sealed, balanced epoch.
func TestCollectorProcessCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns collector processes")
	}
	root := t.TempDir()
	if err := shard.WriteMap(nil, root, shard.Map{Shards: 1, KeyFields: []string{"id", "page"}}); err != nil {
		t.Fatal(err)
	}
	ports, err := freePorts(1)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	url := "http://" + addr
	args := []string{"-app", "wiki", "-dir", shard.Dir(root, 0), "-addr", addr, "-epoch-requests", "5", "-seed", "11", "-drain", "10s"}
	reqs := workload.Wiki(30, 11)
	// A bare collector sets no shard header, so loadgen books its acks
	// under ""; in the one-shard topology they belong to shard 0.
	acked := map[string][]string{}
	errMidEpoch := errors.New("mid-epoch")
	drive := func(reqs []server.Request, before func(int) error) *loadgen.Result {
		t.Helper()
		res, err := loadgen.Run(context.Background(), loadgen.Config{BaseURL: url, Before: before}, reqs)
		if err != nil && !errors.Is(err, errMidEpoch) {
			t.Fatalf("load: %v", err)
		}
		if res.Served != res.Offered {
			t.Fatalf("served %d of %d offered: %+v", res.Served, res.Offered, res.Ledger)
		}
		acked["0"] = append(acked["0"], res.Acked[""]...)
		return res
	}

	first := startCollector(t, url, args...)
	// Serve a few epochs' worth, then stop at the first arrival that finds
	// the open epoch non-empty, so the kill provably strands evidence.
	before := drive(reqs, func(i int) error {
		if i < 7 {
			return nil
		}
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var st collectorhttp.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		if st.ActiveRequests > 0 {
			return errMidEpoch
		}
		return nil
	})
	if before.Offered == len(reqs) {
		t.Fatal("the open epoch never held a request")
	}
	if err := first.stop(t, syscall.SIGKILL); err == nil {
		t.Fatal("the SIGKILLed collector exited cleanly")
	}

	second := startCollector(t, url, args...)
	drive(reqs[before.Offered:], nil)
	if err := second.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v\n%s", err, second.out.String())
	}

	// The accepting audit names the one degraded epoch status reports, and
	// no other, as unauditable.
	code, out, errs := cli("status", "-dir", root)
	var status struct {
		Shards []struct {
			Manifests []epochlog.Manifest `json:"manifests"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(out), &status); code != 0 || err != nil || len(status.Shards) != 1 {
		t.Fatalf("status exit %d (%v): %s / %s", code, err, out, errs)
	}
	var degraded []uint64
	for _, m := range status.Shards[0].Manifests {
		if m.Degraded != "" {
			degraded = append(degraded, m.Seq)
		}
	}
	if len(degraded) != 1 {
		t.Fatalf("status shows degraded epochs %v, want one", degraded)
	}
	want := fmt.Sprintf("AUDIT ACCEPTED: 1 shards, %d epochs this run, 1 unauditable (shard 0 epoch %d), ", len(status.Shards[0].Manifests), degraded[0])
	if code, out, errs := cli("audit", "-dir", root); code != 0 || !has(out, want) {
		t.Fatalf("audit exit %d, want %q: %s / %s", code, want, out, errs)
	}
	sealed, breaches, err := chaos.AckedSealed(root, acked)
	if err != nil || len(breaches) != 0 || len(acked["0"]) != len(reqs) {
		t.Fatalf("acked %d of %d, sealed %d epochs, breaches %q, %v", len(acked["0"]), len(reqs), sealed, breaches, err)
	}
	res, diff, err := chaos.Reaudit(context.Background(), auditd.ShardedConfig{Root: root, Limits: verifier.DefaultLimits()})
	if err != nil || diff != "" {
		t.Fatalf("re-audit: %v %s", err, diff)
	}
	tally, breaches := chaos.GradeHonest(res, []int{0})
	t.Logf("killed after %d of %d requests; %d epochs sealed, %+v", before.Offered, len(reqs), sealed, tally)
	if len(breaches) != 0 || tally.Unauditable != 1 || tally.Accepted+tally.Unauditable != sealed {
		t.Fatalf("tally %+v over %d sealed epochs, breaches %q", tally, sealed, breaches)
	}
}

// TestBadArgs: unknown subcommands, apps, scenarios and flag combinations
// are infrastructure errors (exit 1), never verdicts and never panics.
func TestBadArgs(t *testing.T) {
	// A log with no epochs yet audits clean, so -graph under a regular file
	// is the only thing wrong with its row.
	emptyLog := t.TempDir()
	notDir := filepath.Join(t.TempDir(), "file")
	for _, path := range []string{filepath.Join(emptyLog, collectorhttp.MetaFile), notDir} {
		if err := os.WriteFile(path, []byte(`{"app":"motd"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code, out, errs := cli("audit", "-dir", emptyLog); code != 0 {
		t.Fatalf("empty log: exit %d: %s / %s", code, out, errs)
	}
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"pipeline"}, // folded into chaos -scenario pipeline
		// The process supervisor and the gateway's fault flag are gone.
		{"fleet"},
		{"fleet", "frobnicate"},
		{"fleet", "accept", "-shards", "0"},
		{"serve", "-app", "nope", "-dir", t.TempDir()},
		{"gateway"}, // neither -local nor -backends
		{"gateway", "-local", "-app", "nope", "-root", t.TempDir()},
		{"gateway", "-backends", "http://x", "-root", t.TempDir()}, // no shard map
		{"gateway", "-local", "-netfault", "emp", "-root", t.TempDir()},
		{"audit", "-dir", t.TempDir()}, // neither a log nor a topology root
		{"audit", "-dir", emptyLog, "-graph", filepath.Join(notDir, "g")},
		{"status", "-dir", t.TempDir()},
		{"chaos", "-scenario", "nope"},
		{"chaos", "-scenario", "pipeline", "-app", "nope"},
		{"chaos", "-scenario", "shard-kill", "-app", "motd"}, // unshardable app
		{"chaos", "-scenario-file", filepath.Join(t.TempDir(), "missing.json")},
		{"load", "-url", "http://127.0.0.1:1", "-mix", "nope"},
		{"load", "-url", "http://127.0.0.1:1", "-app", "nope", "-n", "1"},
		{"load", "-url", "http://127.0.0.1:1", "-repeat-mix", "1.5", "-n", "4"},
		{"load", "-n", "4"}, // no target: the self-contained mode moved to chaos
		// The flags that left with it.
		{"load", "-url", "http://127.0.0.1:1", "-audit"},
		{"load", "-target", "http://127.0.0.1:1"},
		{"load", "-url", "http://127.0.0.1:1", "-dir", t.TempDir()},
		{"load", "-url", "http://127.0.0.1:1", "-max-queued-bytes", "1"},
		{"load", "-url", "http://127.0.0.1:1", "-epoch-requests", "8"},
		{"load", "-url", "http://127.0.0.1:1", "-epoch-max-age", "1s"},
		{"load", "-url", "http://127.0.0.1:1", "-commit", "group"},
		{"load", "-url", "http://127.0.0.1:1", "-max-inflight", "4"},
		{"figures", "-fig", "99"},
		{"figures", "-fig", "x"},
		{"figures", "-conc", "1,x"},
		{"figures", "-workers", "0"},
		{"figures", "-requests", "30", "-warmup", "30"},
		{"figures", "-trials", "0"},
	} {
		if code, _, errs := cli(args...); code != 1 {
			t.Errorf("%v: exit %d, want 1 (%s)", args, code, errs)
		}
	}
	// Group commit is the only durable append: the mode flag is gone from
	// every subcommand that boots collectors.
	for _, args := range [][]string{
		{"serve", "-commit", "group", "-dir", t.TempDir()},
		{"gateway", "-local", "-commit", "group", "-root", t.TempDir()},
	} {
		if code, _, errs := cli(args...); code != 1 || !has(errs, "flag provided but not defined: -commit") {
			t.Errorf("%v: exit %d, want 1 for an unknown flag (%s)", args, code, errs)
		}
	}
	// The gateway forwards once under a fixed timeout: its retry and
	// breaker knobs are gone with them.
	for _, gone := range []string{"per-try-timeout", "max-retries", "breaker-failures", "breaker-open-for", "netfault"} {
		if code, _, errs := cli("gateway", "-local", "-"+gone, "1", "-root", t.TempDir()); code != 1 || !has(errs, "flag provided but not defined: -"+gone) {
			t.Errorf("gateway -%s: exit %d, want 1 for an unknown flag (%s)", gone, code, errs)
		}
	}
	if _, _, errs := cli("load", "-n", "4"); !has(errs, "-url", "chaos -scenario overload-burst") {
		t.Errorf("stderr should point at -url and the chaos scenario: %s", errs)
	}
	// The stage-baseline gate did not move with the figure sweeps.
	for _, gone := range []string{"out", "update", "check", "tolerance"} {
		if code, _, errs := cli("figures", "-baseline-"+gone, "1"); code != 1 {
			t.Errorf("figures -baseline-%s: exit %d, want 1 (%s)", gone, code, errs)
		}
	}
	// The operational figures are benchmark workloads now; the error says
	// which.
	for fig, workload := range map[string]string{"13": "motd-write-burst", "14": "wiki-live", "15": "feeds-steady"} {
		if code, _, errs := cli("figures", "-fig", fig); code != 1 || !has(errs, "benchmark/run.sh", workload) {
			t.Errorf("figures -fig %s: exit %d, stderr should name workload %s: %s", fig, code, workload, errs)
		}
	}
}

// TestFiguresCmd: one figure at a tiny sweep prints its heading and one
// panel per application with one row per concurrency level.
func TestFiguresCmd(t *testing.T) {
	code, out, errs := cli("figures", "-fig", "8", "-requests", "30", "-warmup", "6", "-trials", "1", "-conc", "1,4")
	if code != 0 || !strings.HasPrefix(out, "==== Figure 8 ====\n") {
		t.Fatalf("figures exit %d: %s / %s", code, out, errs)
	}
	panels := strings.Split(out, "\n-- ")[1:]
	if len(panels) != 2 || !has(panels[0], "advice size — motd") || !has(panels[1], "advice size — wiki") {
		t.Fatalf("want the motd and wiki advice-size panels, got %d: %s", len(panels), out)
	}
	for _, p := range panels {
		// Title, header, then the rows.
		lines := strings.Split(strings.TrimSpace(p), "\n")
		if len(lines) != 4 || !has(lines[1], "conc", "karousos", "orochi-js", "ratio") ||
			!strings.HasPrefix(lines[2], "1 ") || !strings.HasPrefix(lines[3], "4 ") {
			t.Fatalf("panel is not header + rows for conc 1 and 4:\n%s", p)
		}
	}
}
