package verifier_test

import (
	"context"
	"encoding/json"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// epoch is one sealed slice of a continuous serving run.
type epoch struct {
	tr       *trace.Trace
	kar, oro *advice.Advice
}

// serveEpochs serves the request batches on one long-lived server, draining
// the advice at every batch boundary — the same protocol the HTTP collector
// follows when it seals an epoch, recording each REQ before and each RESP
// after its ServeOne.
func serveEpochs(t *testing.T, spec harness.AppSpec, batches [][]server.Request) []epoch {
	t.Helper()
	app, store := spec.New()
	srv := server.New(server.Config{
		App: app, Store: store, Seed: 42,
		CollectKarousos: true, CollectOrochi: true,
	})
	var out []epoch
	for _, batch := range batches {
		tr := &trace.Trace{}
		for _, r := range batch {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Req, RID: string(r.RID), Data: value.Normalize(r.Input)})
			y, err := srv.ServeOne(r)
			if err != nil {
				t.Fatalf("serve %s: %v", r.RID, err)
			}
			tr.Events = append(tr.Events, trace.Event{Kind: trace.Resp, RID: string(r.RID), Data: y})
		}
		kar, oro := srv.DrainAdvice()
		out = append(out, epoch{tr: tr, kar: kar, oro: oro})
	}
	return out
}

func auditChain(t *testing.T, spec harness.AppSpec, eps []epoch, mode advice.Mode) {
	t.Helper()
	var carry *verifier.CarryState
	for i, ep := range eps {
		app, _ := spec.New()
		cfg := verifier.Config{App: app, Mode: mode, Isolation: spec.Isolation, Carry: carry}
		adv := ep.kar
		if mode == advice.ModeOrochiJS {
			adv = ep.oro
		}
		st, next, err := verifier.AuditCarry(context.Background(), cfg, ep.tr, adv)
		if err != nil {
			t.Fatalf("%s epoch %d rejected: %v (code %s)", mode, i+1, err, core.RejectCodeOf(err))
		}
		if st.Requests != len(ep.tr.RIDs()) {
			t.Errorf("%s epoch %d audited %d requests, trace has %d", mode, i+1, st.Requests, len(ep.tr.RIDs()))
		}
		carry = next
	}
}

// TestCarryChainAllApps serves every application continuously across three
// epochs and audits each epoch with the carry produced by the previous one.
// This is the tentpole property: per-epoch audits of a long-running server
// accept exactly like one monolithic audit would.
func TestCarryChainAllApps(t *testing.T) {
	for _, spec := range []harness.AppSpec{harness.MOTDApp(), harness.StacksApp(), harness.WikiApp()} {
		t.Run(spec.Name, func(t *testing.T) {
			var reqs []server.Request
			switch spec.Name {
			case "motd":
				reqs = workload.MOTD(60, workload.Mixed, 11)
			case "stacks":
				reqs = workload.Stacks(60, workload.Mixed, 11, workload.DefaultStacksOptions())
			default:
				reqs = workload.Wiki(60, 11)
			}
			batches := [][]server.Request{reqs[:20], reqs[20:40], reqs[40:]}
			eps := serveEpochs(t, spec, batches)
			auditChain(t, spec, eps, advice.ModeKarousos)
			auditChain(t, spec, eps, advice.ModeOrochiJS)
		})
	}
}

// motdEpochs builds a deterministic two-epoch MOTD run where epoch 2's
// response is only explainable by a write that happened in epoch 1.
func motdEpochs(t *testing.T) []epoch {
	t.Helper()
	set := server.Request{RID: "e1-set", Input: value.Map(
		"op", "set", "scope", "always", "msg", "hello-from-epoch-1")}
	get := server.Request{RID: "e2-get", Input: value.Map("op", "get", "day", "mon")}
	return serveEpochs(t, harness.MOTDApp(), [][]server.Request{{set}, {get}})
}

// TestCarryRequiredForCrossEpochReads shows the carry is load-bearing: the
// second epoch accepts with the first epoch's carry and rejects without it,
// because re-execution then reads the app's init state instead of the
// carried write and produces the wrong response.
func TestCarryRequiredForCrossEpochReads(t *testing.T) {
	eps := motdEpochs(t)
	spec := harness.MOTDApp()

	for _, mode := range []advice.Mode{advice.ModeKarousos, advice.ModeOrochiJS} {
		adv := func(ep epoch) *advice.Advice {
			if mode == advice.ModeOrochiJS {
				return ep.oro
			}
			return ep.kar
		}
		app, _ := spec.New()
		_, carry, err := verifier.AuditCarry(context.Background(),
			verifier.Config{App: app, Mode: mode}, eps[0].tr, adv(eps[0]))
		if err != nil {
			t.Fatalf("%s epoch 1 rejected: %v", mode, err)
		}
		if carry == nil {
			t.Fatalf("%s epoch 1 produced no carry", mode)
		}

		app, _ = spec.New()
		if _, _, err := verifier.AuditCarry(context.Background(),
			verifier.Config{App: app, Mode: mode, Carry: carry}, eps[1].tr, adv(eps[1])); err != nil {
			t.Errorf("%s epoch 2 rejected with carry: %v", mode, err)
		}

		app, _ = spec.New()
		_, _, err = verifier.AuditCarry(context.Background(),
			verifier.Config{App: app, Mode: mode}, eps[1].tr, adv(eps[1]))
		if err == nil {
			t.Errorf("%s epoch 2 accepted without the carry it depends on", mode)
		} else if code := core.RejectCodeOf(err); code == "" || code == core.RejectInternalFault {
			t.Errorf("%s epoch 2 without carry rejected with code %q: %v", mode, code, err)
		}
	}
}

// TestCarryForgedIdentityRejects: advice that supplies its own log entry at
// a carry identity is claiming authority over trusted state — the audit
// must reject it as malformed rather than let the entry shadow the carried
// value.
func TestCarryForgedIdentityRejects(t *testing.T) {
	eps := motdEpochs(t)
	spec := harness.MOTDApp()

	app, _ := spec.New()
	_, carry, err := verifier.AuditCarry(context.Background(),
		verifier.Config{App: app, Mode: advice.ModeKarousos}, eps[0].tr, eps[0].kar)
	if err != nil {
		t.Fatalf("epoch 1 rejected: %v", err)
	}

	forged := eps[1].kar.Clone()
	var anyVar core.VarID
	for id := range carry.Vars {
		anyVar = id
		break
	}
	forged.VarLogs[anyVar] = append(forged.VarLogs[anyVar], advice.VarLogEntry{
		Op:    core.Op{RID: core.InitRID, HID: core.InitHID, Num: core.EpochCarryBase},
		Type:  advice.AccessWrite,
		Value: value.Normalize("attacker-controlled"),
	})
	app, _ = spec.New()
	_, _, err = verifier.AuditCarry(context.Background(),
		verifier.Config{App: app, Mode: advice.ModeKarousos, Carry: carry}, eps[1].tr, forged)
	if err == nil {
		t.Fatal("forged carry-identity log entry accepted")
	}
	if code := core.RejectCodeOf(err); code != core.RejectMalformedAdvice {
		t.Fatalf("forged carry identity rejected with %s, want %s (%v)", code, core.RejectMalformedAdvice, err)
	}
}

// TestCarryStateJSONRoundTrip: the auditor daemon checkpoints the carry as
// JSON; values must survive the trip (after Normalize) so a restarted
// auditor resumes with an identical dictionary.
func TestCarryStateJSONRoundTrip(t *testing.T) {
	eps := serveEpochs(t, harness.WikiApp(),
		[][]server.Request{workload.Wiki(30, 3)[:15], workload.Wiki(30, 3)[15:]})
	spec := harness.WikiApp()
	app, _ := spec.New()
	_, carry, err := verifier.AuditCarry(context.Background(),
		verifier.Config{App: app, Mode: advice.ModeKarousos, Isolation: spec.Isolation},
		eps[0].tr, eps[0].kar)
	if err != nil {
		t.Fatalf("epoch 1 rejected: %v", err)
	}
	blob, err := json.Marshal(carry)
	if err != nil {
		t.Fatal(err)
	}
	restored := &verifier.CarryState{}
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	restored.Normalize()
	app, _ = spec.New()
	if _, _, err := verifier.AuditCarry(context.Background(),
		verifier.Config{App: app, Mode: advice.ModeKarousos, Isolation: spec.Isolation, Carry: restored},
		eps[1].tr, eps[1].kar); err != nil {
		t.Fatalf("epoch 2 rejected with round-tripped carry: %v", err)
	}
}
