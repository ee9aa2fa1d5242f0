package karousos_test

import (
	"testing"

	"karousos.dev/karousos"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation allocates.
var raceEnabled bool

// TestAuditCostPinned pins the audit path's cost in counts that survive the
// host: the allocations of one advice encode, one advice decode and one
// sequential audit, the advice's wire bytes and the audit's work counters,
// per app at the stage benchmarks' workloads (feeds at the mixed mix). An
// allocation count may drift by 1 %; bytes and counters are exact. A
// change that moves one re-pins it and says why.
func TestAuditCostPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	for _, c := range []struct {
		app                   string
		mix                   workload.Mix
		encode, decode, audit float64
		wire                  int
		stats                 verifier.Stats
	}{
		{"motd", workload.WriteHeavy, 1369, 2863, 7865, 13847,
			verifier.Stats{Groups: 3, Requests: 300, GraphNodes: 2073, GraphEdges: 3513, HandlersRerun: 3}},
		{"stacks", workload.ReadHeavy, 907, 3568, 25230, 19711,
			verifier.Stats{Groups: 19, Requests: 300, GraphNodes: 6828, GraphEdges: 10006, HandlersRerun: 145}},
		{"wiki", workload.Mixed, 5303, 9094, 35535, 42419,
			verifier.Stats{Groups: 6, Requests: 300, GraphNodes: 8715, GraphEdges: 15510, HandlersRerun: 18}},
		{"feeds", workload.Mixed, 523, 1961, 7203, 9212,
			verifier.Stats{Groups: 2, Requests: 300, GraphNodes: 2102, GraphEdges: 3569, HandlersRerun: 2}},
	} {
		t.Run(c.app, func(t *testing.T) {
			spec, _, run := benchRun(t, c.app, c.mix)
			wire := run.Karousos.MarshalBinary()
			if len(wire) != c.wire {
				t.Errorf("wire bytes %d, pinned %d", len(wire), c.wire)
			}
			opt := harness.VerifyOptions{Workers: 1}
			v := harness.VerifyWith(spec, run.Trace, run.Karousos, opt)
			if v.Err != nil {
				t.Fatal(v.Err)
			}
			if v.Stats != c.stats {
				t.Errorf("audit stats %+v, pinned %+v", v.Stats, c.stats)
			}
			for _, a := range []struct {
				stage  string
				pinned float64
				runs   int
				f      func()
			}{
				{"encode", c.encode, 10, func() { run.Karousos.MarshalBinary() }},
				{"decode", c.decode, 10, func() {
					if _, err := karousos.UnmarshalAdvice(wire); err != nil {
						t.Fatal(err)
					}
				}},
				{"audit", c.audit, 3, func() {
					if v := harness.VerifyWith(spec, run.Trace, run.Karousos, opt); v.Err != nil {
						t.Fatal(v.Err)
					}
				}},
			} {
				got := testing.AllocsPerRun(a.runs, a.f)
				if got < 0.99*a.pinned || got > 1.01*a.pinned {
					t.Errorf("%s allocates %.0f per run, pinned %.0f (±1 %%)", a.stage, got, a.pinned)
				}
			}
		})
	}
}
