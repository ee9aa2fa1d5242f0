package verifier_test

import (
	"fmt"
	"sort"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// TestLimitsAtHonestValue sets each resource bound of verifier.Limits to
// exactly what an honest epoch needs, which must accept, and to one less,
// which must reject with ResourceLimit and the bound's own message. The
// honest values come from the advice (handler activations, the largest
// opcount) and from an unbounded audit's Stats (graph nodes and edges).
func TestLimitsAtHonestValue(t *testing.T) {
	for _, app := range []struct {
		spec harness.AppSpec
		reqs []server.Request
	}{
		{harness.WikiApp(), workload.Wiki(60, 5)},
		{harness.MOTDApp(), workload.MOTD(60, workload.WriteHeavy, 5)},
	} {
		run, err := harness.Serve(app.spec, app.reqs, 10, 5, harness.CollectKarousos)
		if err != nil {
			t.Fatal(err)
		}
		adv := run.Karousos
		honest := harness.VerifyWith(app.spec, run.Trace, adv, harness.VerifyOptions{Workers: 1})
		if honest.Err != nil {
			t.Fatalf("%s: unbounded audit rejected: %v", app.spec.Name, honest.Err)
		}
		handlers, maxOps, maxOpsMsg := opcountFacts(adv)
		nodes, edges := honest.Stats.GraphNodes, honest.Stats.GraphEdges

		rows := []struct {
			name  string
			set   func(l *verifier.Limits, n int)
			value int
			msg   string // the reject reason at value-1
		}{
			{"MaxHandlers", func(l *verifier.Limits, n int) { l.MaxHandlers = n }, handlers,
				fmt.Sprintf("advice declares more than %d handler activations", handlers-1)},
			{"MaxOpsPerHandler", func(l *verifier.Limits, n int) { l.MaxOpsPerHandler = n }, maxOps, maxOpsMsg},
			{"MaxGraphNodes", func(l *verifier.Limits, n int) { l.MaxGraphNodes = n }, nodes,
				fmt.Sprintf("execution graph exceeds %d nodes", nodes-1)},
			{"MaxGraphEdges", func(l *verifier.Limits, n int) { l.MaxGraphEdges = n }, edges,
				fmt.Sprintf("execution graph exceeds %d edges", edges-1)},
		}
		for _, row := range rows {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s=%d/workers=%d", app.spec.Name, row.name, row.value, workers)
				audit := func(n int) error {
					var lim verifier.Limits
					row.set(&lim, n)
					return harness.VerifyWith(app.spec, run.Trace, adv, harness.VerifyOptions{Workers: workers, Limits: lim}).Err
				}
				if err := audit(row.value); err != nil {
					t.Errorf("%s: at the honest value: %v", name, err)
				}
				err := audit(row.value - 1)
				rej, ok := err.(core.Reject)
				if !ok || rej.Code != core.RejectResourceLimit || rej.Reason != row.msg {
					t.Errorf("%s: one below the honest value: got %v, want %s %q", name, err, core.RejectResourceLimit, row.msg)
				}
			}
		}
	}
}

// opcountFacts returns the advice's handler-activation count, its largest
// opcount, and the reason an audit bounded one below that opcount gives:
// it names the first activation, in (rid, hid) order, over the bound.
func opcountFacts(adv *advice.Advice) (handlers, maxOps int, msg string) {
	var rids []string
	for rid, counts := range adv.OpCounts {
		rids = append(rids, string(rid))
		handlers += len(counts)
		for _, n := range counts {
			maxOps = max(maxOps, n)
		}
	}
	sort.Strings(rids)
	for _, rid := range rids {
		counts := adv.OpCounts[core.RID(rid)]
		var hids []string
		for hid := range counts {
			hids = append(hids, string(hid))
		}
		sort.Strings(hids)
		for _, hid := range hids {
			if n := counts[core.HID(hid)]; n == maxOps {
				return handlers, maxOps, fmt.Sprintf("opcount %d for (%s,%s) exceeds limit %d", n, rid, hid, maxOps-1)
			}
		}
	}
	return handlers, maxOps, ""
}
