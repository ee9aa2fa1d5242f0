// Benchmarks: one testing.B benchmark per panel of every figure in the
// paper's evaluation (Figures 6–12, §6 and Appendix B). Each benchmark
// measures the quantity the figure plots — server processing time with and
// without advice collection, verification time for the three verifiers, or
// advice size (reported as bytes/op metrics) — at a representative
// concurrency. The full concurrency sweeps live in cmd/karousos-bench, which
// shares the same harness code.
//
// Run with:
//
//	go test -bench=. -benchmem
package karousos_test

import (
	"fmt"
	"runtime"
	"testing"

	"karousos.dev/karousos"
	"karousos.dev/karousos/internal/experiments"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/workload"
)

// benchRequests keeps go-bench iterations affordable while preserving the
// figures' shapes; cmd/karousos-bench defaults to the paper's 600.
const benchRequests = 300

// benchServe measures the serving path (Figure 6 and the (a) panels of
// Figures 9–12): processing time of the measured requests at the given
// collection mode, after warm-up.
func benchServe(b *testing.B, app string, mix workload.Mix, conc int, mode harness.Collect) {
	b.Helper()
	warmup := benchRequests / 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, reqs := experiments.AppWorkload(app, mix, benchRequests, 1)
		if _, err := harness.ServeWarm(spec, reqs, warmup, conc, int64(i), mode); err != nil {
			b.Fatal(err)
		}
	}
}

// benchVerify measures one verifier's turnaround (Figure 7 and the (b)
// panels): the serve happens outside the timed region.
func benchVerify(b *testing.B, app string, mix workload.Mix, conc int, verifier string) {
	b.Helper()
	spec, reqs := experiments.AppWorkload(app, mix, benchRequests, 1)
	run, err := harness.Serve(spec, reqs, conc, 42, harness.CollectBoth)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch verifier {
		case "karousos":
			if v := harness.VerifyKarousos(spec, run.Trace, run.Karousos); v.Err != nil {
				b.Fatal(v.Err)
			}
		case "orochi":
			if v := harness.VerifyOrochi(spec, run.Trace, run.Orochi); v.Err != nil {
				b.Fatal(v.Err)
			}
		case "sequential":
			if v := harness.VerifySequential(spec, run.Trace); v.Err != nil {
				b.Fatal(v.Err)
			}
		}
	}
}

// benchAdviceSize reports advice sizes (Figure 8 and the (c) panels) as
// custom metrics; the measured operation is advice serialization, which is
// the unit of shipping cost.
func benchAdviceSize(b *testing.B, app string, mix workload.Mix, conc int) {
	b.Helper()
	spec, reqs := experiments.AppWorkload(app, mix, benchRequests, 1)
	run, err := harness.Serve(spec, reqs, conc, 42, harness.CollectBoth)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var k, o int
	for i := 0; i < b.N; i++ {
		k = run.Karousos.Size()
		o = run.Orochi.Size()
	}
	b.ReportMetric(float64(k), "karousos-bytes")
	b.ReportMetric(float64(o), "orochi-bytes")
	b.ReportMetric(float64(k)/float64(o), "size-ratio")
}

// --- Figure 6: server overheads ---

func BenchmarkFig6aMOTDWriteHeavyServerUnmodified(b *testing.B) {
	benchServe(b, "motd", workload.WriteHeavy, 30, harness.CollectNone)
}
func BenchmarkFig6aMOTDWriteHeavyServerKarousos(b *testing.B) {
	benchServe(b, "motd", workload.WriteHeavy, 30, harness.CollectKarousos)
}
func BenchmarkFig6bStacksReadHeavyServerUnmodified(b *testing.B) {
	benchServe(b, "stacks", workload.ReadHeavy, 30, harness.CollectNone)
}
func BenchmarkFig6bStacksReadHeavyServerKarousos(b *testing.B) {
	benchServe(b, "stacks", workload.ReadHeavy, 30, harness.CollectKarousos)
}
func BenchmarkFig6cWikiServerUnmodified(b *testing.B) {
	benchServe(b, "wiki", workload.Mixed, 30, harness.CollectNone)
}
func BenchmarkFig6cWikiServerKarousos(b *testing.B) {
	benchServe(b, "wiki", workload.Mixed, 30, harness.CollectKarousos)
}

// --- Figure 7: verification time ---

func BenchmarkFig7aMOTDWriteHeavyVerifyKarousos(b *testing.B) {
	benchVerify(b, "motd", workload.WriteHeavy, 30, "karousos")
}
func BenchmarkFig7aMOTDWriteHeavyVerifyOrochi(b *testing.B) {
	benchVerify(b, "motd", workload.WriteHeavy, 30, "orochi")
}
func BenchmarkFig7aMOTDWriteHeavyVerifySequential(b *testing.B) {
	benchVerify(b, "motd", workload.WriteHeavy, 30, "sequential")
}
func BenchmarkFig7bStacksReadHeavyVerifyKarousos(b *testing.B) {
	benchVerify(b, "stacks", workload.ReadHeavy, 30, "karousos")
}
func BenchmarkFig7bStacksReadHeavyVerifyOrochi(b *testing.B) {
	benchVerify(b, "stacks", workload.ReadHeavy, 30, "orochi")
}
func BenchmarkFig7bStacksReadHeavyVerifySequential(b *testing.B) {
	benchVerify(b, "stacks", workload.ReadHeavy, 30, "sequential")
}
func BenchmarkFig7cWikiVerifyKarousos(b *testing.B) {
	benchVerify(b, "wiki", workload.Mixed, 30, "karousos")
}
func BenchmarkFig7cWikiVerifyOrochi(b *testing.B) {
	benchVerify(b, "wiki", workload.Mixed, 30, "orochi")
}
func BenchmarkFig7cWikiVerifySequential(b *testing.B) {
	benchVerify(b, "wiki", workload.Mixed, 30, "sequential")
}

// --- Figure 8: advice size ---

func BenchmarkFig8MOTDWriteHeavyAdviceSize(b *testing.B) {
	benchAdviceSize(b, "motd", workload.WriteHeavy, 30)
}
func BenchmarkFig8WikiAdviceSize(b *testing.B) {
	benchAdviceSize(b, "wiki", workload.Mixed, 30)
}

// --- Figures 9–12 (Appendix B): remaining workloads, panels a/b/c each ---

func BenchmarkFig9aMOTDMixedServerKarousos(b *testing.B) {
	benchServe(b, "motd", workload.Mixed, 30, harness.CollectKarousos)
}
func BenchmarkFig9bMOTDMixedVerifyKarousos(b *testing.B) {
	benchVerify(b, "motd", workload.Mixed, 30, "karousos")
}
func BenchmarkFig9bMOTDMixedVerifySequential(b *testing.B) {
	benchVerify(b, "motd", workload.Mixed, 30, "sequential")
}
func BenchmarkFig9cMOTDMixedAdviceSize(b *testing.B) {
	benchAdviceSize(b, "motd", workload.Mixed, 30)
}

func BenchmarkFig10aMOTDReadHeavyServerKarousos(b *testing.B) {
	benchServe(b, "motd", workload.ReadHeavy, 30, harness.CollectKarousos)
}
func BenchmarkFig10bMOTDReadHeavyVerifyKarousos(b *testing.B) {
	benchVerify(b, "motd", workload.ReadHeavy, 30, "karousos")
}
func BenchmarkFig10bMOTDReadHeavyVerifySequential(b *testing.B) {
	benchVerify(b, "motd", workload.ReadHeavy, 30, "sequential")
}
func BenchmarkFig10cMOTDReadHeavyAdviceSize(b *testing.B) {
	benchAdviceSize(b, "motd", workload.ReadHeavy, 30)
}

func BenchmarkFig11aStacksMixedServerKarousos(b *testing.B) {
	benchServe(b, "stacks", workload.Mixed, 30, harness.CollectKarousos)
}
func BenchmarkFig11bStacksMixedVerifyKarousos(b *testing.B) {
	benchVerify(b, "stacks", workload.Mixed, 30, "karousos")
}
func BenchmarkFig11bStacksMixedVerifyOrochi(b *testing.B) {
	benchVerify(b, "stacks", workload.Mixed, 30, "orochi")
}
func BenchmarkFig11cStacksMixedAdviceSize(b *testing.B) {
	benchAdviceSize(b, "stacks", workload.Mixed, 30)
}

func BenchmarkFig12aStacksWriteHeavyServerKarousos(b *testing.B) {
	benchServe(b, "stacks", workload.WriteHeavy, 30, harness.CollectKarousos)
}
func BenchmarkFig12bStacksWriteHeavyVerifyKarousos(b *testing.B) {
	benchVerify(b, "stacks", workload.WriteHeavy, 30, "karousos")
}
func BenchmarkFig12bStacksWriteHeavyVerifyOrochi(b *testing.B) {
	benchVerify(b, "stacks", workload.WriteHeavy, 30, "orochi")
}
func BenchmarkFig12cStacksWriteHeavyAdviceSize(b *testing.B) {
	benchAdviceSize(b, "stacks", workload.WriteHeavy, 30)
}

// --- component microbenchmarks ---

// BenchmarkAuditComponents breaks one wiki audit into its phases via the
// public API, for profiling regressions.
func BenchmarkAuditComponents(b *testing.B) {
	spec := karousos.WikiApp()
	reqs := karousos.WikiWorkload(benchRequests, 1)
	run, err := karousos.Serve(spec, reqs, 30, 42, karousos.CollectKarousos)
	if err != nil {
		b.Fatal(err)
	}
	wire := run.Karousos.MarshalBinary()
	b.Run("advice-decode", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := karousos.UnmarshalAdvice(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("advice-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = run.Karousos.MarshalBinary()
		}
	})
	b.Run("full-audit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := karousos.VerifyKarousos(spec, run.Trace, run.Karousos); v.Err != nil {
				b.Fatal(v.Err)
			}
		}
	})
}

// BenchmarkConcurrencySweep reports Karousos verification time across the
// paper's concurrency axis crossed with the audit-worker axis in one run
// (sub-benchmarks per level). The worker axis is the parallel engine's
// scaling curve: workers-1 is the sequential engine, higher levels replay
// tag groups concurrently with a deterministic merge.
func BenchmarkConcurrencySweep(b *testing.B) {
	spec := karousos.WikiApp()
	workerLevels := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		workerLevels = append(workerLevels, g)
	}
	for _, conc := range []int{1, 15, 30, 60} {
		reqs := karousos.WikiWorkload(benchRequests, 1)
		run, err := karousos.Serve(spec, reqs, conc, 42, karousos.CollectKarousos)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range workerLevels {
			b.Run(fmt.Sprintf("conc-%d-workers-%d", conc, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v := karousos.VerifyWith(spec, run.Trace, run.Karousos, karousos.VerifyOptions{Workers: workers})
					if v.Err != nil {
						b.Fatal(v.Err)
					}
				}
			})
		}
	}
}

// --- ablation: batched vs singleton-group re-execution (§4.1 trade-off) ---

func BenchmarkAblationWikiVerifyBatched(b *testing.B) {
	spec := harness.WikiApp()
	_, reqs := experiments.AppWorkload("wiki", workload.Mixed, benchRequests, 1)
	run, err := harness.Serve(spec, reqs, 30, 42, harness.CollectKarousos)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := harness.VerifyKarousos(spec, run.Trace, run.Karousos); v.Err != nil {
			b.Fatal(v.Err)
		}
	}
}

func BenchmarkAblationWikiVerifyUnbatched(b *testing.B) {
	spec := harness.WikiApp()
	_, reqs := experiments.AppWorkload("wiki", workload.Mixed, benchRequests, 1)
	run, err := harness.Serve(spec, reqs, 30, 42, harness.CollectKarousos)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := harness.VerifyKarousosUnbatched(spec, run.Trace, run.Karousos); v.Err != nil {
			b.Fatal(v.Err)
		}
	}
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
