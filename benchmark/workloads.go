package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/workload"
)

// workloadDef is one named traffic mix plus the slice of the stack it runs
// on. Every workload has the same two timed phases — a serve phase that
// drives HTTP requests into the real stack and leaves a sealed epoch log,
// and a drain phase in which fresh cold auditors grade that whole log
// repeatedly — and differs in which layers those phases lean on.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why  string
	Spec harness.AppSpec
	// Shards > 0 serves through gateway.Local over that many shards and
	// audits with auditd.Sharded; 0 drives one collector directly.
	Shards        int
	EpochRequests int
	// Conns is the number of client goroutines/connections (≤ nproc).
	Conns int
	// Rate > 0 is an open loop at that many requests/s; 0 is a closed loop.
	Rate float64
	// Live runs the sharded auditor in follow mode (Poll = livePoll) while
	// the serve phase runs, which is what verdict lag is measured on.
	Live bool
	// Memo audits with the cross-epoch memo cache on.
	Memo bool
	// Warmup requests are served before the timed ones, untimed.
	Warmup int
	// Requests is how many timed requests a run of the given length serves.
	Requests func(seconds float64) int
	// Inputs generates n request inputs from the seed.
	Inputs func(n int, seed int64) []value.V
	// Headline is the end-to-end metric the tracing overhead is judged on.
	Headline string
}

const memoBytes = 256 << 20

func wikiInputs(n int, seed int64) []value.V {
	reqs := workload.Wiki(n, seed)
	out := make([]value.V, n)
	for i, r := range reqs {
		out[i] = r.Input
	}
	return out
}

func motdInputs(n int, seed int64) []value.V {
	reqs := workload.MOTD(n, workload.WriteHeavy, seed)
	out := make([]value.V, n)
	for i, r := range reqs {
		out[i] = r.Input
	}
	return out
}

// feedsEpoch is one epoch of the recurring feeds stream: the 24-board pool
// four times over. Epochs seal on exactly this count, so every epoch holds
// the same requests in the same order — the only traffic shape the memo
// cache's whole-closure keys hit on (experiments.BuildMemoLog).
const feedsEpoch = 96

// feedsInputs cycles workload.Repeats("feeds") in a seed-chosen board order.
func feedsInputs(n int, seed int64) []value.V {
	pool, err := workload.Repeats("feeds")
	if err != nil {
		panic(err) // "feeds" is a name workload.Repeats defines
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := make([]value.V, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

// workloads returns the four workloads, sized for the 2-core sandbox: never
// more client connections than cores, and request counts that scale with the
// run length so that the serve phase takes about 0.4 of it there; the drain
// phase takes the rest.
func workloads(nproc int) []workloadDef {
	clients := min(2, nproc)
	return []workloadDef{
		{
			Name: "wiki-live",
			Why:  "operator's path: wiki via gateway over 2 shards, open loop at 600 req/s (~36% of capacity), sharded auditor following live; every layer does a little and serving and auditing share the cores",
			Spec: harness.WikiApp(), Shards: 2, EpochRequests: 100, Conns: clients, Rate: 600, Live: true,
			Warmup:   200,
			Requests: func(s float64) int { return int(240 * s) },
			Inputs:   wikiInputs, Headline: "ack_p50_ms",
		},
		{
			Name: "motd-write-burst",
			Why:  "record-bound: motd 90% writes (~10 KB trace+advice per request) into one collector, closed loop; audit takes the memo miss path; gateway and shard code idle",
			Spec: harness.MOTDApp(), EpochRequests: 100, Conns: clients, Memo: true,
			Warmup:   200,
			Requests: func(s float64) int { return int(500 * s) },
			Inputs:   motdInputs, Headline: "serve_rps",
		},
		{
			Name: "wiki-backlog",
			Why:  "audit-bound: one-shard wiki log drained cold with the memo off, so only epochlog read, advice decode, verifier and auditd run in the audit_rps region",
			Spec: harness.WikiApp(), EpochRequests: 100, Conns: clients,
			Warmup:   200,
			Requests: func(s float64) int { return int(700 * s) },
			Inputs:   wikiInputs, Headline: "audit_rps",
		},
		{
			Name: "feeds-steady",
			Why:  "memo hit path: one sequential client repeats the same 24-board feeds stream every 96-request epoch; drained with the memo on (twin of motd-write-burst's miss path)",
			Spec: harness.FeedsApp(), EpochRequests: feedsEpoch, Conns: 1, Memo: true,
			Warmup:   2 * feedsEpoch,
			Requests: func(s float64) int { return int(4*s) * feedsEpoch },
			Inputs:   feedsInputs, Headline: "audit_rps",
		},
	}
}

func workloadByName(defs []workloadDef, name string) (workloadDef, error) {
	for _, d := range defs {
		if d.Name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// bodies marshals inputs into /invoke request bodies.
func bodies(inputs []value.V) ([][]byte, error) {
	out := make([][]byte, len(inputs))
	for i, in := range inputs {
		b, err := json.Marshal(map[string]any{"input": in})
		if err != nil {
			return nil, fmt.Errorf("marshal input %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}
