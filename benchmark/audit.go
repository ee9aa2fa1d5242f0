package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
)

// auditOpts are the knobs a drain varies; everything else is the workload's.
type auditOpts struct {
	Lanes   int // sharded topologies only
	Workers int // AuditWorkers
	Memo    bool
	FS      iofault.FS
}

// drainResult is one cold pass of a fresh auditor over a whole sealed log.
type drainResult struct {
	Wall     time.Duration
	Epochs   int // graded
	Accepted int
	Stats    verifier.Stats
}

func memoBudget(on bool) int {
	if on {
		return memoBytes
	}
	return 0
}

// drain builds a fresh auditor — no checkpoint, cold caches — and grades
// every sealed epoch under the stack's root. A rejection is an error.
func drain(def workloadDef, root string, o auditOpts) (drainResult, error) {
	ctx := context.Background()
	if def.Shards > 0 {
		sh, err := auditd.NewSharded(auditd.ShardedConfig{
			Root:         root,
			Lanes:        o.Lanes,
			Limits:       verifier.DefaultLimits(),
			AuditWorkers: o.Workers,
			MemoMaxBytes: memoBudget(o.Memo),
			FS:           o.FS,
		})
		if err != nil {
			return drainResult{}, err
		}
		start := time.Now()
		res, err := sh.Audit(ctx)
		r := drainResult{Wall: time.Since(start), Stats: res.Stats}
		if err != nil {
			return r, err
		}
		for _, lane := range res.Shards {
			r.Epochs += len(lane.Verdicts)
			r.Accepted += lane.Status.Accepted
		}
		if !res.Accepted() {
			return r, fmt.Errorf("sharded audit did not accept: [%s] %s", res.Merge.Code, res.Merge.Reason)
		}
		return r, nil
	}
	a, err := auditd.New(auditd.Config{
		Dir:          root,
		Spec:         def.Spec,
		Limits:       verifier.DefaultLimits(),
		AuditWorkers: o.Workers,
		MemoMaxBytes: memoBudget(o.Memo),
		FS:           o.FS,
	})
	if err != nil {
		return drainResult{}, err
	}
	start := time.Now()
	n, err := a.RunOnce(ctx)
	st := a.Status()
	return drainResult{Wall: time.Since(start), Epochs: n, Accepted: st.Accepted, Stats: st.Stats}, err
}

// sealedLog summarises what the serve phase left on disk.
type sealedLog struct {
	Epochs      int
	Requests    int
	AdviceBytes int64
	// RIDs holds shard/rid for every REQ event in a sealed trace.
	RIDs map[string]bool
}

func ridKey(shardIndex int, rid string) string { return fmt.Sprintf("%d/%s", shardIndex, rid) }

func readSealedLog(dirs []string) (sealedLog, error) {
	log := sealedLog{RIDs: make(map[string]bool)}
	manifests, err := sealed(dirs)
	if err != nil {
		return log, err
	}
	for s, ms := range manifests {
		for _, m := range ms {
			if m.Degraded != "" {
				return log, fmt.Errorf("shard %d epoch %d sealed degraded: %s", s, m.Seq, m.Degraded)
			}
			log.Epochs++
			log.Requests += m.Requests
			log.AdviceBytes += int64(m.AdviceBytes)
			tr, _, _, err := epochlog.ReadSealed(dirs[s], m.Seq, epochlog.Options{})
			if err != nil {
				return log, err
			}
			for _, e := range tr.Events {
				if e.Kind == trace.Req {
					log.RIDs[ridKey(s, e.RID)] = true
				}
			}
		}
	}
	return log, nil
}

// negativeEpochs is how long a prefix the negative control replays: two
// clean epochs so the third is audited with a carry and (memo on) against a
// warm cache — the paths a too-trusting fast path would live on.
const negativeEpochs = 3

// negativeControl copies the first epochs of dir into a scratch log with the
// last one's advice mutated by a faultinject operator, and requires the
// auditor to reject exactly that epoch. A verifier that got fast by
// accepting everything fails here.
func negativeControl(def workloadDef, dir, scratch string, seed int64, workers int) error {
	manifests, err := epochlog.ListSealed(dir)
	if err != nil {
		return err
	}
	n := negativeEpochs
	if len(manifests) < n {
		n = len(manifests)
	}
	if n == 0 {
		return errors.New("negative control: no sealed epochs")
	}
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	out, err := epochlog.Open(scratch, epochlog.Options{})
	if err != nil {
		return err
	}
	defer out.Close()
	for i := 0; i < n; i++ {
		tr, blob, _, err := epochlog.ReadSealed(dir, manifests[i].Seq, epochlog.Options{})
		if err != nil {
			return err
		}
		if i == n-1 {
			if blob, err = mutateAdvice(blob, seed); err != nil {
				return err
			}
		}
		for _, e := range tr.Events {
			if err := out.AppendEvent(e); err != nil {
				return err
			}
		}
		if err := out.AppendAdvice(blob); err != nil {
			return err
		}
		if _, err := out.Seal(); err != nil {
			return err
		}
	}
	single := def
	single.Shards = 0
	res, err := drain(single, scratch, auditOpts{Workers: workers, Memo: def.Memo})
	var rej *auditd.Reject
	if !errors.As(err, &rej) {
		return fmt.Errorf("negative control: mutated advice in epoch %d was not rejected (graded %d epochs, err %v)", n, res.Epochs, err)
	}
	if rej.Epoch != uint64(n) {
		return fmt.Errorf("negative control: rejected epoch %d, the mutation is in epoch %d: %v", rej.Epoch, n, rej)
	}
	return nil
}

// mutateAdvice drops one handler-log or variable-log entry: a structural lie
// the codec accepts, so the rejection has to come from the verifier proper.
// Advice with no logs at all (feeds views) gets an inflated opcount instead.
func mutateAdvice(blob []byte, seed int64) ([]byte, error) {
	adv, err := advice.UnmarshalBinary(blob)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"drop-log-entry", "opcount-inflate"} {
		op, ok := faultinject.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("negative control: faultinject has no %s operator", name)
		}
		if op.Mutate(rand.New(rand.NewSource(seed)), adv) {
			return adv.MarshalBinary(), nil
		}
	}
	return nil, errors.New("negative control: no operator applies to this advice")
}

// chainResult is the audit path taken apart: the same calls auditd makes for
// each epoch, made one at a time with a span round each.
type chainResult struct {
	Epochs, Requests          int
	Read, Decode, Encode      time.Duration
	Audit                     time.Duration
	DecodeAllocs, AuditAllocs uint64
	Stats                     verifier.Stats
	Outcomes                  []shard.Outcome
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// auditChain replays every shard's sealed log through ReadSealed →
// UnmarshalBinary → AuditCarry with the carry and memo cache chained exactly
// as auditd.auditEpoch chains them. Nothing else runs meanwhile, so the
// process-wide allocation counter is the chain's own.
func auditChain(def workloadDef, dirs []string, workers int, rec *recorder) (chainResult, error) {
	var res chainResult
	for s, dir := range dirs {
		manifests, err := epochlog.ListSealed(dir)
		if err != nil {
			return res, err
		}
		var carry *verifier.CarryState
		var cache *memo.Cache
		if def.Memo {
			cache = memo.NewCache(memoBytes)
		}
		for _, m := range manifests {
			id := epochSpanID(dir, m.Seq)
			ep := rec.open(spanEpoch, id, noParent)

			t := rec.now()
			tr, blob, _, err := epochlog.ReadSealed(dir, m.Seq, epochlog.Options{MaxAdviceBytes: verifier.DefaultLimits().MaxAdviceBytes})
			rec.add(spanRead, id, ep, t)
			if err != nil {
				return res, err
			}
			res.Read += time.Duration(rec.now() - t)

			if m.Fresh {
				carry = nil
				if cache != nil {
					cache.Reset()
				}
			}
			before := mallocs()
			t = rec.now()
			adv, err := advice.UnmarshalBinary(blob)
			rec.add(spanDecode, id, ep, t)
			res.Decode += time.Duration(rec.now() - t)
			res.DecodeAllocs += mallocs() - before
			if err != nil {
				return res, fmt.Errorf("%s: %w", id, err)
			}

			app, _ := def.Spec.New()
			before = mallocs()
			t = rec.now()
			st, next, err := verifier.AuditCarry(context.Background(), verifier.Config{
				App:       app,
				Mode:      advice.ModeKarousos,
				Isolation: def.Spec.Isolation,
				Limits:    verifier.DefaultLimits(),
				Carry:     carry,
				Workers:   workers,
				Memo:      cache,
			}, tr, adv)
			rec.add(spanAudit, id, ep, t)
			res.Audit += time.Duration(rec.now() - t)
			res.AuditAllocs += mallocs() - before
			rec.close(ep)
			if err != nil {
				return res, fmt.Errorf("%s: %w", id, err)
			}
			carry = next
			res.Stats.Add(st)
			res.Epochs++
			res.Requests += m.Requests

			// Encoding is the server's cost, not the auditor's, so it sits
			// outside the epoch span.
			t = rec.now()
			wire := adv.MarshalBinary()
			res.Encode += time.Duration(rec.now() - t)
			if len(wire) == 0 {
				return res, fmt.Errorf("%s: advice re-encoded to nothing", id)
			}
		}
		res.Outcomes = append(res.Outcomes, shard.Outcome{Shard: s, Dir: dir, Carry: carry})
	}
	return res, nil
}
