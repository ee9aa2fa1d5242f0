package auditd

import (
	"context"
	"testing"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/workload"
)

// BenchmarkDrain is one cold drain of a sealed log by a fresh auditor. The
// in-order loop only audits: each epoch's trace read and advice decode run
// on the prefetch workers while earlier epochs are being audited.
//
//   - motd: ten 100-request write-heavy epochs of ~10 KB advice per
//     request, with the memo on, as the repository benchmark drains
//     motd-write-burst.
//   - wiki: twenty 100-request epochs with the memo off, as it drains
//     wiki-backlog. Here the verifier's own bookkeeping is most of the cost.
func BenchmarkDrain(b *testing.B) {
	for _, bc := range []struct {
		name     string
		spec     harness.AppSpec
		mix      workload.Mix
		epochs   int
		memoSize int
	}{
		{name: "motd", spec: harness.MOTDApp(), mix: workload.WriteHeavy, epochs: 10, memoSize: 256 << 20},
		{name: "wiki", spec: harness.WikiApp(), epochs: 20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			reqs, err := workload.For(bc.spec.Name, bc.mix, 100*bc.epochs, 9)
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			sealLog(b, bc.spec, dir, reqs, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				aud, err := New(Config{Dir: dir, MemoMaxBytes: bc.memoSize})
				if err != nil {
					b.Fatal(err)
				}
				if n, err := aud.RunOnce(context.Background()); err != nil || n != bc.epochs {
					b.Fatalf("drained %d epochs (err %v), want %d", n, err, bc.epochs)
				}
			}
		})
	}
}
