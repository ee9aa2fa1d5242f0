// Benchmarks: the stage microbenchmarks that no figure panel and no
// benchmark workload reports — the audit broken into decode / encode /
// full-audit per application, the batched-vs-singleton re-execution
// ablation, and the parallel-dispatch server extension. The paper's
// figures regenerate with `karousos figures`; end-to-end, layer-attributed
// numbers come from `bash benchmark/run.sh`.
//
// Run with:
//
//	go test -bench=. -benchmem
package karousos_test

import (
	"fmt"
	"testing"

	"karousos.dev/karousos"
	"karousos.dev/karousos/internal/experiments"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/verifier/memo"
	"karousos.dev/karousos/internal/workload"
)

// benchRequests keeps go-bench iterations affordable while preserving the
// workloads' shapes; `karousos figures` defaults to the paper's 600.
const benchRequests = 300

// benchRun serves one workload at concurrency 30 outside the timed region.
func benchRun(b *testing.B, app string, mix workload.Mix) (harness.AppSpec, []server.Request, *harness.ServeResult) {
	b.Helper()
	spec, reqs := experiments.AppWorkload(app, mix, benchRequests, 1)
	run, err := harness.Serve(spec, reqs, 30, 42, harness.CollectKarousos)
	if err != nil {
		b.Fatal(err)
	}
	return spec, reqs, run
}

// BenchmarkAuditComponents breaks one audit into its stages, per
// application at its headline mix: the advice codec in both directions and
// the whole verifier pass, with allocations — the stage numbers the
// decode and verifier-scratch targets are stated on — plus the seal: what
// a collector does under its exclusive epoch gate.
func BenchmarkAuditComponents(b *testing.B) {
	for _, w := range []struct {
		app string
		mix workload.Mix
	}{
		{"motd", workload.WriteHeavy},
		{"stacks", workload.ReadHeavy},
		{"wiki", workload.Mixed},
	} {
		spec, reqs, run := benchRun(b, w.app, w.mix)
		wire := run.Karousos.MarshalBinary()
		b.Run(w.app+"/advice-decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if _, err := karousos.UnmarshalAdvice(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.app+"/advice-encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = run.Karousos.MarshalBinary()
			}
		})
		b.Run(w.app+"/full-audit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := karousos.VerifyKarousos(spec, run.Trace, run.Karousos); v.Err != nil {
					b.Fatal(v.Err)
				}
			}
		})
		// The seal: drain the serving runtime's advice and lay out its blob,
		// as a collector does while holding the epoch gate exclusively. Each
		// iteration serves the workload again, untimed.
		b.Run(w.app+"/seal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				app, store := spec.New()
				srv := server.New(server.Config{App: app, Store: store, Seed: 42, CollectKarousos: true})
				if _, err := srv.Run(reqs, 30); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if kar, _ := srv.DrainAdvice(); len(kar.Blob) == 0 {
					b.Fatal("drained no advice")
				}
			}
		})
		if w.app != "motd" {
			continue
		}
		// The memo miss path: every group is keyed, probed, missed,
		// captured and published into a cache that starts empty.
		b.Run(w.app+"/full-audit-memo-cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := harness.VerifyOptions{Memo: memo.NewCache(256 << 20)}
				if v := harness.VerifyWith(spec, run.Trace, run.Karousos, opt); v.Err != nil {
					b.Fatal(v.Err)
				}
			}
		})
	}
}

// --- ablation: batched vs singleton-group re-execution (§4.1 trade-off) ---

func benchWikiVerify(b *testing.B, verify func(harness.AppSpec, *karousos.Trace, *karousos.Advice) *karousos.VerifyResult) {
	spec, _, run := benchRun(b, "wiki", workload.Mixed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := verify(spec, run.Trace, run.Karousos); v.Err != nil {
			b.Fatal(v.Err)
		}
	}
}

func BenchmarkAblationWikiVerifyBatched(b *testing.B) {
	benchWikiVerify(b, karousos.VerifyKarousos)
}

func BenchmarkAblationWikiVerifyUnbatched(b *testing.B) {
	benchWikiVerify(b, karousos.VerifyKarousosUnbatched)
}

// --- extension: parallel dispatch (multi-threaded KEM runtime) ---

func BenchmarkParallelServerWiki(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, reqs := experiments.AppWorkload("wiki", workload.Mixed, benchRequests, 1)
				app, store := spec.New()
				srv := karousos.NewServer(karousos.ServerConfig{
					App: app, Store: store, Seed: int64(i), Workers: workers, CollectKarousos: true,
				})
				if _, err := srv.Run(reqs, 30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
