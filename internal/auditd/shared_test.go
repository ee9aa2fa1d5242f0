package auditd

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
)

// TestDecodedValuesSurviveAudit guards the rule that lets value.Interner
// share lists and maps among everything decoded from one advice blob or
// one epoch's trace: values are immutable and shared by identity (package
// value; DESIGN.md §9). Applications derive new state through appkit.With,
// Without and Append, which copy only what they change; the verifier and
// the multivalue layer never write into a value. A write into a shared
// value would change every entry that shares it, so the test looks for any
// write at all.
//
// Every application is served in both advice modes into an epoch log, the
// way the collector seals it. Its sealed epochs are read and decoded once, as the auditor does, and then
// audited in order with the carry, through one memo cache, at one and at
// four workers: cold, then warm, the warm pass replaying every group from
// the cache. Afterwards every decoded advice must still encode to its blob
// byte for byte, and every decoded trace must still digest to its
// manifest, which holds exactly when every event re-encodes to its frame.
func TestDecodedValuesSurviveAudit(t *testing.T) {
	for _, spec := range []harness.AppSpec{harness.MOTDApp(), harness.StacksApp(), harness.WikiApp(), harness.FeedsApp()} {
		for _, mode := range []advice.Mode{advice.ModeKarousos, advice.ModeOrochiJS} {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, mode), func(t *testing.T) {
				dir := t.TempDir()
				sealDialectLog(t, spec, dir, requestsFor(t, spec, 60, 9), mode, 20)
				sealed, err := epochlog.ListSealed(dir)
				if err != nil || len(sealed) != 3 {
					t.Fatalf("sealed %d epochs (err %v), want 3", len(sealed), err)
				}
				for _, workers := range []int{1, 4} {
					type epoch struct {
						tr   *trace.Trace
						blob []byte
						m    *epochlog.Manifest
						adv  *advice.Advice
					}
					eps := make([]epoch, len(sealed))
					for i, m := range sealed {
						ep := &eps[i]
						if ep.tr, ep.blob, ep.m, err = epochlog.ReadSealed(dir, m.Seq, epochlog.Options{}); err != nil {
							t.Fatal(err)
						}
						if ep.adv, err = advice.UnmarshalBinary(ep.blob); err != nil {
							t.Fatal(err)
						}
					}
					// A rejection is reported, not fatal: a write into a decoded
					// value usually derails the audit too, and the checks after
					// the loop then name what was written.
					cache := memo.NewCache(64 << 20)
				audits:
					for _, warm := range []bool{false, true} {
						var carry *verifier.CarryState
						for i, ep := range eps {
							app, _ := spec.New()
							cfg := verifier.Config{
								App: app, Mode: mode, Isolation: spec.Isolation, Limits: verifier.DefaultLimits(),
								Workers: workers, Carry: carry, Memo: cache,
							}
							st, next, err := verifier.AuditCarry(context.Background(), cfg, ep.tr, ep.adv)
							if err != nil {
								t.Errorf("workers=%d warm=%v epoch %d rejected: %v", workers, warm, i+1, err)
								break audits
							}
							if warm && (st.MemoMisses != 0 || st.MemoHits != st.Groups) {
								t.Fatalf("workers=%d warm epoch %d: hits=%d misses=%d groups=%d, want every group replayed",
									workers, i+1, st.MemoHits, st.MemoMisses, st.Groups)
							}
							carry = next
						}
					}
					for i, ep := range eps {
						if !bytes.Equal(ep.adv.MarshalBinary(), ep.blob) {
							t.Errorf("workers=%d epoch %d: the audits changed a decoded advice value in place", workers, i+1)
						}
						if ep.tr.Digest() != ep.m.TraceDigest {
							t.Errorf("workers=%d epoch %d: the audits changed a decoded trace value in place", workers, i+1)
						}
					}
				}
			})
		}
	}
}

// sealDialectLog serves reqs on one server collecting mode's advice and
// seals an epoch into dir every epochRequests requests, as the collector
// does with its Karousos advice: the REQ before and the RESP after each
// ServeOne, the drained blob at the seal.
func sealDialectLog(t *testing.T, spec harness.AppSpec, dir string, reqs []server.Request, mode advice.Mode, epochRequests int) {
	t.Helper()
	app, store := spec.New()
	srv := server.New(server.Config{
		App: app, Store: store, Seed: 42,
		CollectKarousos: mode == advice.ModeKarousos, CollectOrochi: mode == advice.ModeOrochiJS,
	})
	l, err := epochlog.Open(dir, epochlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, r := range reqs {
		r.Input = value.Normalize(r.Input)
		if err := l.AppendEvent(trace.Event{Kind: trace.Req, RID: string(r.RID), Data: r.Input}); err != nil {
			t.Fatal(err)
		}
		out, err := srv.ServeOne(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendEvent(trace.Event{Kind: trace.Resp, RID: string(r.RID), Data: out}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%epochRequests != 0 {
			continue
		}
		adv, oro := srv.DrainAdvice()
		if mode == advice.ModeOrochiJS {
			adv = oro
		}
		if err := l.AppendAdvice(adv.MarshalBinary()); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
}
