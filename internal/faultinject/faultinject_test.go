// The property the catalogue enforces, end to end: whatever fault an
// operator injects into honest advice — at the byte level or the structure
// level — the auditor answers with a coded verdict. No panic escapes, no
// audit outruns its deadline, and mutants that change replay semantics
// reject. This is the fault-injection counterpart of the verifier's
// attack tests (targeted forgeries) and mutation fuzz (random structure
// edits).
package faultinject_test

import (
	"testing"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/apps/motd"
	"karousos.dev/karousos/internal/apps/stacks"
	"karousos.dev/karousos/internal/apps/wiki"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

type target struct {
	name string
	mk   func() (*core.App, *kvstore.Store)
	gen  func(seed int64) []server.Request
}

func targets() []target {
	return []target{
		{
			"motd",
			func() (*core.App, *kvstore.Store) { return motd.New(), nil },
			func(seed int64) []server.Request { return workload.MOTD(10, workload.Mixed, seed) },
		},
		{
			"stacks",
			func() (*core.App, *kvstore.Store) { return stacks.New(), kvstore.New(kvstore.Serializable) },
			func(seed int64) []server.Request {
				return workload.Stacks(10, workload.Mixed, seed, workload.DefaultStacksOptions())
			},
		},
		{
			"wiki",
			func() (*core.App, *kvstore.Store) { return wiki.New(), kvstore.New(kvstore.Serializable) },
			func(seed int64) []server.Request { return workload.Wiki(10, seed) },
		},
	}
}

// auditWire decodes and audits wire-format advice the way the CLI does: a
// decode failure is a MalformedAdvice verdict at the boundary, an Audit
// error must carry a RejectCode, and nothing may panic.
func auditWire(t *testing.T, tgt target, tr *trace.Trace, wire []byte, lim verifier.Limits) (accepted bool, code core.RejectCode) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the audit boundary: %v", r)
		}
	}()
	adv, err := advice.UnmarshalBinary(wire)
	if err != nil {
		return false, core.RejectMalformedAdvice
	}
	app, _ := tgt.mk()
	_, err = verifier.Audit(verifier.Config{
		App: app, Mode: advice.ModeKarousos, Isolation: adya.Serializable, Limits: lim,
	}, tr, adv)
	if err == nil {
		return true, ""
	}
	code = core.RejectCodeOf(err)
	if code == "" {
		t.Fatalf("rejection without a reason code: %v", err)
	}
	return false, code
}

// TestCatalogueProperty sweeps every operator over honest runs of all three
// applications: many seeded mutants per operator, each audited under a 10s
// deadline. Byte-level mutants may occasionally be semantics-preserving
// (e.g. a bit flip inside a grouping tag), so a small acceptance rate is
// tolerated there; operators whose injected fault always changes replay
// semantics must reject every time.
func TestCatalogueProperty(t *testing.T) {
	const deadline = 10 * time.Second
	lim := verifier.DefaultLimits()
	lim.Deadline = deadline
	mutants := 200
	if testing.Short() {
		mutants = 20
	}
	mustReject := map[string]bool{
		"opcount-inflate": true,
	}
	// cycle-write-chain forges detached precedence cycles; they never
	// influence replay output, so acceptance is sound — the operator probes
	// that the chain walk terminates with a coded verdict, not detection.
	// The acceptance-ratio heuristic therefore doesn't apply to it.
	terminationProbe := map[string]bool{
		"cycle-write-chain": true,
	}
	for _, tgt := range targets() {
		tgt := tgt
		t.Run(tgt.name, func(t *testing.T) {
			app, store := tgt.mk()
			srv := server.New(server.Config{App: app, Store: store, Seed: 11, CollectKarousos: true})
			res, err := srv.Run(tgt.gen(7), 4)
			if err != nil {
				t.Fatal(err)
			}
			wire := res.Karousos.MarshalBinary()
			if ok, _ := auditWire(t, tgt, res.Trace, wire, lim); !ok {
				t.Fatal("honest baseline rejected")
			}
			for _, op := range faultinject.Catalogue() {
				op := op
				t.Run(op.Name, func(t *testing.T) {
					applied, accepted := 0, 0
					for seed := 0; seed < mutants; seed++ {
						mut, err := op.Apply(int64(seed), wire)
						if err != nil {
							if op.Kind == faultinject.KindSemantic {
								continue // no applicable site in this advice
							}
							t.Fatal(err)
						}
						applied++
						start := time.Now()
						ok, code := auditWire(t, tgt, res.Trace, mut, lim)
						if el := time.Since(start); el > deadline+5*time.Second {
							t.Fatalf("seed %d: audit overran the %v deadline (took %v)", seed, deadline, el)
						}
						if ok {
							accepted++
							if mustReject[op.Name] {
								t.Errorf("seed %d: semantics-changing mutant accepted", seed)
							}
						} else if code == "" {
							t.Errorf("seed %d: rejected without a code", seed)
						}
					}
					if applied == 0 {
						t.Skipf("no applicable site in %s advice", tgt.name)
					}
					if !terminationProbe[op.Name] && accepted*4 > applied {
						t.Errorf("suspiciously many mutants accepted: %d/%d", accepted, applied)
					}
					t.Logf("%d mutants, %d accepted", applied, accepted)
				})
			}
		})
	}
}

// TestApplyDeterministic: same spec, same input, same output — the property
// that makes "reproduce with -faultinject op:seed" meaningful.
func TestApplyDeterministic(t *testing.T) {
	tgt := targets()[0]
	app, store := tgt.mk()
	srv := server.New(server.Config{App: app, Store: store, Seed: 3, CollectKarousos: true})
	res, err := srv.Run(tgt.gen(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	wire := res.Karousos.MarshalBinary()
	for _, op := range faultinject.Catalogue() {
		a, errA := op.Apply(42, wire)
		b, errB := op.Apply(42, wire)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: nondeterministic error", op.Name)
		}
		if errA != nil {
			continue
		}
		if string(a) != string(b) {
			t.Errorf("%s: same seed produced different mutants", op.Name)
		}
		c, errC := op.Apply(43, wire)
		if errC == nil && string(a) == string(c) && op.Name != "truncate" {
			// Different seeds usually differ; tolerate collisions only for
			// operators with tiny choice spaces on this small advice.
			t.Logf("%s: seeds 42 and 43 collided (small choice space)", op.Name)
		}
	}
}

func TestParseSpec(t *testing.T) {
	op, seed, err := faultinject.ParseSpec("bit-flip:9")
	if err != nil || op.Name != "bit-flip" || seed != 9 {
		t.Fatalf("got %v %d %v", op.Name, seed, err)
	}
	if _, seed, err = faultinject.ParseSpec("truncate"); err != nil || seed != 0 {
		t.Fatalf("bare name: seed %d err %v", seed, err)
	}
	if _, _, err = faultinject.ParseSpec("no-such-op:1"); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if _, _, err = faultinject.ParseSpec("bit-flip:many"); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, _, err = faultinject.ParseSpec("bit-flip:9:1"); err == nil {
		t.Fatal("a times field accepted")
	}
}

func TestNamesCoverCatalogue(t *testing.T) {
	names := faultinject.Names()
	if len(names) != len(faultinject.Catalogue()) {
		t.Fatalf("%d names for %d operators", len(names), len(faultinject.Catalogue()))
	}
	for _, n := range names {
		if _, ok := faultinject.Lookup(n); !ok {
			t.Errorf("Lookup(%q) failed", n)
		}
	}
}
