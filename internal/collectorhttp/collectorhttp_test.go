package collectorhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/verifier"
)

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func invoke(t *testing.T, base string, input any) map[string]any {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, base+"/invoke", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke: status %d: %s", resp.StatusCode, out)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("invoke response not JSON: %v (%s)", err, out)
	}
	return decoded
}

// TestInvokeRecordsAndSeals drives MOTD requests over HTTP, checks the
// responses flow back, and checks the count threshold seals epochs whose
// recorded trace matches what the client observed.
func TestInvokeRecordsAndSeals(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	set := map[string]any{"op": "set", "scope": "always", "msg": "over-http"}
	get := map[string]any{"op": "get", "day": "mon"}
	invoke(t, ts.URL, set)
	invoke(t, ts.URL, get) // epoch 1 seals here
	out := invoke(t, ts.URL, get)
	msg, _ := out["output"].(map[string]any)
	if msg["msg"] != "over-http" {
		t.Fatalf("cross-epoch read returned %v, want over-http", out["output"])
	}

	st := c.Status()
	if st.SealedEpochs != 1 || st.ActiveRequests != 1 || st.Served != 3 {
		t.Fatalf("status after 3 invokes: %+v", st)
	}
	if err := c.Close(); err != nil { // seals the partial second epoch
		t.Fatal(err)
	}

	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 2 {
		t.Fatalf("found %d sealed epochs, want 2", len(sealed))
	}
	for _, m := range sealed {
		tr, blob, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
		if err != nil {
			t.Fatalf("epoch %d: %v", m.Seq, err)
		}
		if err := tr.CheckBalanced(); err != nil {
			t.Fatalf("epoch %d trace unbalanced: %v", m.Seq, err)
		}
		if _, err := advice.UnmarshalBinary(blob); err != nil {
			t.Fatalf("epoch %d advice does not decode: %v", m.Seq, err)
		}
	}
	meta, err := ReadMeta(dir)
	if err != nil || meta.App != "motd" || meta.Mode != advice.ModeKarousos {
		t.Fatalf("meta = %+v, err %v", meta, err)
	}
}

// TestAdviceEndpointLastWins: uploads to /advice land in the active epoch
// and the last intact record wins over the collector's own drain — the
// upload path is how an out-of-process server supplies its advice.
func TestAdviceEndpointLastWins(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	resp, _ := post(t, ts.URL+"/advice", []byte("not-the-winner"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("advice upload: status %d", resp.StatusCode)
	}
	resp, body := post(t, ts.URL+"/seal", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: status %d", resp.StatusCode)
	}
	var m epochlog.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	c.Close()

	_, blob, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The collector drains its own advice at seal time, after the upload.
	if adv, err := advice.UnmarshalBinary(blob); err != nil {
		t.Fatalf("winning record is not the drained advice: %v", err)
	} else if adv.Mode != advice.ModeKarousos {
		t.Fatalf("winning advice mode = %s", adv.Mode)
	}
}

// TestAdviceByteLimitOverHTTP: an oversized upload is refused with 413 and
// never reaches the log.
func TestAdviceByteLimitOverHTTP(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{
		Spec:   harness.MOTDApp(),
		Dir:    dir,
		Limits: verifier.Limits{MaxAdviceBytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	defer c.Close()

	resp, _ := post(t, ts.URL+"/advice", bytes.Repeat([]byte("x"), 65))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized advice: status %d, want 413", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/advice", []byte("small"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("in-limit advice: status %d", resp.StatusCode)
	}
}

// TestAgeBasedSeal: a non-empty epoch older than EpochMaxAge seals without
// further requests.
func TestAgeBasedSeal(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochMaxAge: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().SealedEpochs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age-based seal never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartResumesRIDsAndMarksFresh: reopening a collector over a
// directory a previous incarnation wrote to must seal the recovered partial
// epoch, resume the RID counter past every RID the log has seen (a fresh
// counter would reuse RIDs across epochs, which the verifier's carry
// rebasing forbids), and mark the next epoch fresh on the trusted channel.
func TestRestartResumesRIDsAndMarksFresh(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	var rids []string
	for i := 0; i < 3; i++ { // epoch 1 seals after 2; 1 request left active
		out := invoke(t, ts1.URL, map[string]any{"op": "get", "day": fmt.Sprint(i)})
		rids = append(rids, out["rid"].(string))
	}
	// Crash: drop the file handles without sealing the partial epoch.
	c1.log.Close()
	ts1.Close()

	c2, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	defer ts2.Close()
	for i := 0; i < 2; i++ {
		out := invoke(t, ts2.URL, map[string]any{"op": "get", "day": fmt.Sprint(i)})
		rids = append(rids, out["rid"].(string))
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, rid := range rids {
		if seen[rid] {
			t.Fatalf("rid %q repeated across the restart", rid)
		}
		seen[rid] = true
	}
	sealed, err := epochlog.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 (pre-crash), epoch 2 (recovered partial, sealed at boot),
	// epoch 3 (post-restart).
	if len(sealed) != 3 {
		t.Fatalf("sealed %d epochs, want 3", len(sealed))
	}
	if sealed[0].Fresh || sealed[1].Fresh {
		t.Fatal("pre-restart epochs marked fresh")
	}
	if !sealed[2].Fresh {
		t.Fatal("first post-restart epoch not marked fresh")
	}
	if sealed[2].LastRID != "r00000005" {
		t.Fatalf("post-restart epoch LastRID = %q, want r00000005", sealed[2].LastRID)
	}
}

// TestRestartRefusesRelabel: meta.json is how an auditor knows which
// application to re-execute sealed epochs under, so reopening a log as a
// different application or advice mode is refused, not silently relabelled.
func TestRestartRefusesRelabel(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"app":  {Spec: harness.StacksApp(), Dir: dir},
		"mode": {Spec: harness.MOTDApp(), Dir: dir, Mode: advice.ModeOrochiJS},
	} {
		if c, err := New(cfg); err == nil {
			c.Close()
			t.Errorf("log of motd/karousos reopened with another %s", name)
		}
	}
	if m, err := ReadMeta(dir); err != nil || m != (Meta{App: "motd", Mode: advice.ModeKarousos}) {
		t.Fatalf("meta after refused relabels: %+v, %v", m, err)
	}
}

// brokenBody yields some bytes, then fails — a client disconnecting
// mid-upload.
type brokenBody struct{ sent bool }

func (b *brokenBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, "partial-advice"), nil
	}
	return 0, fmt.Errorf("client disconnected")
}
func (b *brokenBody) Close() error { return nil }

// TestAdvicePartialBodyNotAppended: a body-read failure returns 400 and the
// partial bytes never reach the log — an appended truncation would win over
// an earlier intact record at seal time.
func TestAdvicePartialBodyNotAppended(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	good := []byte("good-blob")
	resp, _ := post(t, ts.URL+"/advice", good)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("intact upload: status %d", resp.StatusCode)
	}
	req := httptest.NewRequest(http.MethodPost, "/advice", &brokenBody{})
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("partial upload: status %d, want 400", rec.Code)
	}
	// Exactly one frame on disk: header + the intact record.
	data, err := os.ReadFile(filepath.Join(dir, "ep000001.advice"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + len(good); len(data) != want {
		t.Fatalf("advice file is %d bytes, want %d (partial body appended?)", len(data), want)
	}
}

// TestRIDsMonotonicAcrossEpochs: rids never repeat across epochs (the carry
// rebasing depends on it).
func TestRIDsMonotonicAcrossEpochs(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir, EpochRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		out := invoke(t, ts.URL, map[string]any{"op": "get", "day": fmt.Sprint(i)})
		rid, _ := out["rid"].(string)
		if rid == "" || seen[rid] {
			t.Fatalf("rid %q empty or repeated", rid)
		}
		seen[rid] = true
	}
	c.Close()
	sealed, err := epochlog.ListSealed(dir)
	if err != nil || len(sealed) != 5 {
		t.Fatalf("sealed %d epochs (err %v), want 5", len(sealed), err)
	}
}
