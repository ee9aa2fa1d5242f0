// A golden of reject reasons: the code and the exact message the audit
// answers for every faultinject operator on a wiki and a motd log, and for
// every post-re-execution sweep forgery. Reject messages name operations,
// requests and handlers, so this pins how the verifier renders them.
package verifier_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

const rejectGoldenPath = "testdata/reject_reasons.golden"

// rejectLine renders one audit's verdict as a golden line. Audits run under
// DefaultLimits, as production does: an inflated opcount must reject on its
// bound, not allocate. The verdict must be identical at workers 1 and 4.
func rejectLine(t *testing.T, name string, audit func(workers int) error) string {
	t.Helper()
	var lines [2]string
	for i, workers := range []int{1, 4} {
		err := audit(workers)
		switch rej, ok := err.(core.Reject); {
		case err == nil:
			lines[i] = "accept"
		case ok:
			lines[i] = fmt.Sprintf("%s %q", rej.Code, rej.Reason)
		default:
			lines[i] = fmt.Sprintf("error %q", err)
		}
	}
	if lines[0] != lines[1] {
		t.Errorf("%s: workers=1 %s, workers=4 %s", name, lines[0], lines[1])
	}
	return name + "\t" + lines[0]
}

func faultLines(t *testing.T, spec harness.AppSpec, reqs []server.Request) []string {
	t.Helper()
	run, err := harness.Serve(spec, reqs, 10, 5, harness.CollectKarousos)
	if err != nil {
		t.Fatal(err)
	}
	wire := run.Karousos.MarshalBinary()
	var lines []string
	for _, op := range faultinject.Catalogue() {
		for _, seed := range []int64{2, 9} {
			name := fmt.Sprintf("%s/%s:%d", spec.Name, op.Name, seed)
			mut, err := op.Apply(seed, wire)
			if err != nil {
				lines = append(lines, name+"\tno site")
				continue
			}
			adv, err := advice.UnmarshalBinary(mut)
			if err != nil {
				lines = append(lines, name+"\tundecodable")
				continue
			}
			lines = append(lines, rejectLine(t, name, func(workers int) error {
				vr := harness.VerifyWith(spec, run.Trace, adv, harness.VerifyOptions{Workers: workers, Limits: verifier.DefaultLimits()})
				return vr.Err
			}))
		}
	}
	return lines
}

func TestRejectReasonsGolden(t *testing.T) {
	lines := faultLines(t, harness.WikiApp(), workload.Wiki(60, 5))
	lines = append(lines, faultLines(t, harness.MOTDApp(), workload.MOTD(60, workload.WriteHeavy, 5))...)
	tr, honest := sweepRun(t)
	for _, f := range sweepForgeries() {
		adv := honest.Clone()
		ftr := f.forge(tr, adv)
		lines = append(lines, rejectLine(t, "sweeps/"+f.name, func(workers int) error {
			cfg := verifier.Config{App: sweepApp(), Mode: advice.ModeKarousos, Workers: workers, Limits: verifier.DefaultLimits()}
			_, err := verifier.Audit(cfg, ftr, adv)
			return err
		}))
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(filepath.FromSlash(rejectGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", rejectGoldenPath, i+1, g, w)
		}
	}
}
