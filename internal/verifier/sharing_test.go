package verifier_test

import (
	"fmt"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
)

// TestTwoLanesExtendOneTrimmedState pins the hazard that copy-on-write
// state brings: values are shared by identity, so two lanes that extend one
// state must not write into its backing arrays. After enough motd sets to
// trim the history to its cap, r1 and r2 run concurrently — both read the
// state the prefix left, r1 writes, r2 overwrites — so one group
// re-executes two extensions of one state. That state's history is given
// spare capacity, as a trimmed slice has, so an in-place append by either
// lane lands in the slot the other lane's result holds and one write no
// longer matches its log. The run must accept in both modes at one and four
// workers, with the memo cold and then warm.
func TestTwoLanesExtendOneTrimmedState(t *testing.T) {
	spec := harness.MOTDApp()
	var prefix []server.Request
	for i := 0; i < 260; i++ {
		prefix = append(prefix, server.Request{RID: core.RID(fmt.Sprintf("p%03d", i)),
			Input: value.Map("op", "set", "scope", "always", "msg", fmt.Sprintf("m%d", i))})
	}
	r1 := server.Request{RID: "r1", Input: value.Map("op", "set", "scope", "always", "msg", "left")}
	r2 := server.Request{RID: "r2", Input: value.Map("op", "set", "scope", "always", "msg", "right")}
	a, err := harness.Serve(spec, append(prefix[:len(prefix):len(prefix)], r1), 1, 42, harness.CollectBoth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.Serve(spec, append(prefix[:len(prefix):len(prefix)], r2), 1, 42, harness.CollectBoth)
	if err != nil {
		t.Fatal(err)
	}
	tr := concurrentTrace(a.Trace, b.Trace, string(r1.RID), string(r2.RID))
	for _, mode := range []advice.Mode{advice.ModeKarousos, advice.ModeOrochiJS} {
		advA, advB := a.Karousos, b.Karousos
		if mode == advice.ModeOrochiJS {
			advA, advB = a.Orochi, b.Orochi
		}
		adv := concurrentAdvice(t, advA, advB, r1.RID, r2.RID)
		for _, workers := range []int{1, 4} {
			cache := memo.NewCache(memoTestBytes)
			for _, warm := range []bool{false, true} {
				app, _ := spec.New()
				st, err := verifier.Audit(verifier.Config{
					App: app, Mode: mode, Isolation: spec.Isolation,
					Limits: verifier.DefaultLimits(), Workers: workers, Memo: cache,
				}, tr, adv)
				if err != nil {
					t.Fatalf("%s workers=%d warm=%v: rejected (code %s): %v", mode, workers, warm, core.RejectCodeOf(err), err)
				}
				if warm && st.MemoHits != st.Groups {
					t.Fatalf("%s workers=%d: warm pass hit %d of %d groups", mode, workers, st.MemoHits, st.Groups)
				}
			}
		}
	}
}

// concurrentTrace is a's trace with r1's request and response replaced by
// r1 and r2 overlapping: both requests arrive before either response.
func concurrentTrace(a, b *trace.Trace, r1, r2 string) *trace.Trace {
	find := func(tr *trace.Trace, kind trace.Kind, rid string) trace.Event {
		for _, e := range tr.Events {
			if e.Kind == kind && e.RID == rid {
				return e
			}
		}
		panic("no event for " + rid)
	}
	out := &trace.Trace{}
	for _, e := range a.Events {
		if e.RID != r1 {
			out.Events = append(out.Events, e)
		}
	}
	out.Events = append(out.Events,
		find(a, trace.Req, r1), find(b, trace.Req, r2), find(a, trace.Resp, r1), find(b, trace.Resp, r2))
	return out
}

// concurrentAdvice composes the advice an honest parallel server emits for
// concurrentTrace's schedule: a's advice, plus r2's records from b, where r2
// read the state the prefix left; r2's write overwrote r1's. The state both
// read is then given a history with spare capacity. It fails the test if
// r1 and r2 would not re-execute in one group or the history is not at
// its cap.
func concurrentAdvice(t *testing.T, a, b *advice.Advice, r1, r2 core.RID) *advice.Advice {
	t.Helper()
	if a.Tags[r1] != b.Tags[r2] {
		t.Fatal("r1 and r2 have different tags, so they re-execute in different groups")
	}
	a.Tags[r2] = b.Tags[r2]
	a.OpCounts[r2] = b.OpCounts[r2]
	a.ResponseEmittedBy[r2] = b.ResponseEmittedBy[r2]
	a.HandlerLogs[r2] = b.HandlerLogs[r2]
	type access struct{ read, write *advice.VarLogEntry }
	find := func(entries []advice.VarLogEntry, rid core.RID) (acc access) {
		for i := range entries {
			if e := &entries[i]; e.Op.RID == rid && e.Type == advice.AccessRead {
				acc.read = e
			} else if e.Op.RID == rid {
				acc.write = e
			}
		}
		return acc
	}
	for id, entries := range b.VarLogs {
		first, second := find(a.VarLogs[id], r1), find(entries, r2)
		if first.read.Prec != second.read.Prec {
			t.Fatal("r1 and r2 did not read the same state")
		}
		second.write.Prec = first.write.Op
		a.VarLogs[id] = append(a.VarLogs[id], *second.read, *second.write)
	}
	out := a.Clone()
	for id, entries := range out.VarLogs {
		first := find(entries, r1)
		for i := range entries {
			if e := &entries[i]; e.Op == first.read.Prec {
				hist := appkit.AsList(appkit.Field(e.Value, "history"))
				if n := len(appkit.AsList(appkit.Field(first.write.Value, "history"))); n != len(hist) {
					t.Fatalf("variable %s: history of %d entries grew to %d; the prefix did not trim it", id, len(hist), n)
				}
				spare := make([]value.V, len(hist), len(hist)+8)
				copy(spare, hist)
				e.Value = appkit.With(e.Value, "history", spare)
			}
		}
	}
	return out
}
