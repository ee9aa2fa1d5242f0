package auditd

import (
	"context"
	"testing"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/workload"
)

// BenchmarkDrain is one cold drain of a sealed motd write-heavy log — ten
// 100-request epochs of ~10 KB advice per request — by a fresh auditor with
// the memo on, as the repository benchmark drains motd-write-burst. The
// in-order loop only audits: each epoch's trace read and advice decode run
// on the prefetch workers while earlier epochs are being audited.
func BenchmarkDrain(b *testing.B) {
	spec := harness.MOTDApp()
	reqs, err := workload.For(spec.Name, workload.WriteHeavy, 1000, 9)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	sealLog(b, spec, dir, reqs, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud, err := New(Config{Dir: dir, MemoMaxBytes: 256 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if n, err := aud.RunOnce(context.Background()); err != nil || n != 10 {
			b.Fatalf("drained %d epochs (err %v), want 10", n, err)
		}
	}
}
