package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/collectorhttp"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/epochlog"
	"karousos.dev/karousos/internal/verifier"
)

// auditCmd is the supervised auditor over a log or a topology root: one
// lane per shard, run concurrently up to the lane budget, then the
// cross-shard merge check. The merged verdict is the exit code.
func auditCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("audit", stderr)
	dir := fs.String("dir", "karousos-epochs", "epoch log directory, or the root of a sharded topology")
	cp := fs.String("checkpoint", "", "directory of resume files, one per shard (checkpoint-shard-NN.json), written after every graded epoch; created if missing")
	follow := fs.Bool("follow", false, "keep tailing the logs until interrupted or every shard has rejected")
	deadline := fs.Duration("deadline", verifier.DefaultLimits().Deadline, "wall-clock budget per epoch audit (0 = unbounded)")
	reasonCode := fs.Bool("reason-code", false, "when the verdict is not an accept, print only the bare reason code on stdout")
	workers := fs.Int("workers", 0, "audit parallelism per epoch: 0 = GOMAXPROCS, 1 = sequential (verdict identical at every setting)")
	shards := fs.Int("shards", 0, "sanity pin: fail unless the topology under -dir has this many shards (0 = no pin)")
	lanes := fs.Int("lanes", 0, "concurrent audit lanes (0 = one per shard; the verdict is identical at every setting)")
	memoOn := fs.Bool("memo", false, "memoize re-execution across epochs (content-addressed tag-group cache; verdict identical on or off)")
	memoMax := fs.Int("memo-max-bytes", 256<<20, "memo cache byte budget per lane when -memo is set (0 = unbounded)")
	graph := fs.String("graph", "", "write each graded epoch's execution graph G as Graphviz DOT to DIR/shard-NN/epNNNNNN.dot (cycles highlighted); created if missing")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *shards > 0 {
		// The topology's own map file is authoritative; a mismatch means the
		// operator is pointing at the wrong root.
		if m, _, err := auditd.Topology(*dir); err == nil && m.Shards != *shards {
			return fail(stderr, fmt.Errorf("-shards %d, but the topology under %s has %d shards", *shards, *dir, m.Shards))
		}
	}
	cfg := auditd.ShardedConfig{
		Root:          *dir,
		Lanes:         *lanes,
		CheckpointDir: *cp,
		Limits:        verifier.DefaultLimits(),
		AuditWorkers:  *workers,
		GraphDir:      *graph,
	}
	cfg.Limits.Deadline = *deadline
	if *memoOn {
		// ShardedConfig spells "memo off" as 0, so unbounded is a budget far
		// beyond any epoch log.
		if cfg.MemoMaxBytes = *memoMax; cfg.MemoMaxBytes <= 0 {
			cfg.MemoMaxBytes = 1 << 40
		}
	}
	sh, err := auditd.NewSharded(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *follow {
		err = sh.Run(ctx)
	} else {
		_, err = sh.RunOnce(ctx)
	}
	if err != nil {
		return fail(stderr, err)
	}
	res := sh.Result()
	// One report, two destinations: an accept is the command's output; a
	// verdict that is not one is diagnostics, so stdout stays free for the
	// bare -reason-code.
	report := stdout
	if !res.Accepted() {
		report = stderr
		if *reasonCode {
			fmt.Fprintln(stdout, res.Merge.Code)
		}
		fmt.Fprintf(stderr, "AUDIT REJECTED [%s]: %s\n", res.Merge.Code, res.Merge.Reason)
		for _, c := range res.Merge.Conflicts {
			fmt.Fprintf(stderr, "  conflict: key %q claimed by shards %v\n", c.Key, c.Shards)
		}
	}
	graded := 0
	for _, rep := range res.Shards {
		graded += len(rep.Verdicts)
		verdict := "accepted"
		if rep.Code != "" {
			verdict = fmt.Sprintf("[%s] %s", rep.Code, rep.Reason)
			if n := len(rep.Verdicts); n > 0 && rep.Code != core.RejectUnauditable {
				verdict = fmt.Sprintf("epoch %d rejected %s", rep.Verdicts[n-1].Epoch, verdict)
			}
		}
		fmt.Fprintf(report, "shard %d (%s): through epoch %d, %s\n", rep.Shard, rep.Dir, rep.Status.LastProcessed, verdict)
	}
	if !res.Accepted() {
		return 2
	}
	fmt.Fprintf(stdout, "AUDIT ACCEPTED: %d shards, %d epochs this run, %d handlers re-run", len(res.Shards), graded, res.Stats.HandlersRerun)
	if *memoOn {
		fmt.Fprintf(stdout, " (memo: %d hits, %d misses, %d evictions)", res.Stats.MemoHits, res.Stats.MemoMisses, res.Stats.MemoEvictions)
	}
	fmt.Fprintln(stdout)
	return 0
}

// shardStatus is one shard's slice of the status report.
type shardStatus struct {
	Shard        int                 `json:"shard"`
	Dir          string              `json:"dir"`
	App          string              `json:"app,omitempty"`
	Mode         string              `json:"mode,omitempty"`
	SealedEpochs int                 `json:"sealedEpochs"`
	Manifests    []epochlog.Manifest `json:"manifests"`
	// LastProcessed and Pending report against the -checkpoint directory:
	// the newest epoch the auditor graded (accepted or unauditable) and how
	// many sealed epochs lie past it.
	LastProcessed *uint64 `json:"lastProcessed,omitempty"`
	Pending       *int    `json:"pending,omitempty"`
}

func statusCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("status", stderr)
	dir := fs.String("dir", "karousos-epochs", "epoch log directory, or the root of a sharded topology")
	cp := fs.String("checkpoint", "", "the auditor's -checkpoint directory to report progress against")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	_, dirs, err := auditd.Topology(*dir)
	if err != nil {
		return fail(stderr, err)
	}
	out := struct {
		Dir          string        `json:"dir"`
		SealedEpochs int           `json:"sealedEpochs"`
		Pending      *int          `json:"pending,omitempty"`
		Shards       []shardStatus `json:"shards"`
	}{Dir: *dir}
	if *cp != "" {
		out.Pending = new(int)
	}
	for s, d := range dirs {
		sealed, err := epochlog.ListSealed(d)
		if err != nil {
			return fail(stderr, err)
		}
		st := shardStatus{Shard: s, Dir: d, SealedEpochs: len(sealed), Manifests: sealed}
		if meta, err := collectorhttp.ReadMeta(d); err == nil {
			st.App, st.Mode = meta.App, string(meta.Mode)
		}
		if *cp != "" {
			// A missing or corrupt checkpoint reads as progress zero: the
			// auditor (re)starts from the beginning, so everything is pending.
			last, _, _ := auditd.ProbeCheckpoint(nil, auditd.CheckpointPath(*cp, s))
			pending := 0
			for _, m := range sealed {
				if m.Seq > last {
					pending++
				}
			}
			st.LastProcessed, st.Pending = &last, &pending
			*out.Pending += pending
		}
		out.SealedEpochs += len(sealed)
		out.Shards = append(out.Shards, st)
	}
	if err := printJSON(stdout, out); err != nil {
		return fail(stderr, err)
	}
	return 0
}
