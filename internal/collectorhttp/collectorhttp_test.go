package collectorhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/leakcheck"
)

// TestMain fails the package when one of its goroutines outlives the tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

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
	if err != nil || meta.App != "motd" {
		t.Fatalf("meta = %+v, err %v", meta, err)
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
// different application is refused, not silently relabelled.
func TestRestartRefusesRelabel(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := New(Config{Spec: harness.StacksApp(), Dir: dir}); err == nil {
		c.Close()
		t.Error("log of motd reopened as stacks")
	}
	if m, err := ReadMeta(dir); err != nil || m != (Meta{App: "motd"}) {
		t.Fatalf("meta after refused relabels: %+v, %v", m, err)
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

// TestServesExactlyItsRoutes: the collector answers POST /invoke, POST
// /seal, GET /healthz and GET /readyz and nothing else. Advice is never
// uploaded: bytes posted to /advice are refused, and the sealed epoch
// carries the blob the seal drained from the embedded runtime.
func TestServesExactlyItsRoutes(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Spec: harness.MOTDApp(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	invoke(t, ts.URL, map[string]any{"op": "get", "day": "mon"})
	forged := []byte("forged advice")
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/advice", http.StatusNotFound},
		{http.MethodGet, "/status", http.StatusNotFound},
		{http.MethodGet, "/invoke", http.StatusMethodNotAllowed},
		{http.MethodGet, "/seal", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodPost, "/readyz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/readyz", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(forged))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	if resp, body := post(t, ts.URL+"/seal", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seal: status %d: %s", resp.StatusCode, body)
	}
	_, blob, _, err := epochlog.ReadSealed(dir, 1, epochlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blob, forged) {
		t.Fatal("sealed epoch carries the bytes posted to /advice")
	}
	if _, err := advice.UnmarshalBinary(blob); err != nil {
		t.Fatalf("sealed advice is not the drained blob: %v", err)
	}
}
