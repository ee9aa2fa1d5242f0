// karousos-audit is the end-to-end command-line workflow of the system:
//
//	karousos-audit serve -app wiki -n 600 -conc 30 -out rundir
//	    serves a generated workload, writing the trusted trace and the
//	    untrusted advice to rundir/trace.json and rundir/advice.bin;
//
//	karousos-audit verify -app wiki -dir rundir
//	    audits the stored (trace, advice) pair and reports the verdict —
//	    this is what the paper's principal runs periodically on a machine
//	    they control;
//
//	karousos-audit tamper -dir rundir
//	    flips one response in the stored trace, so a subsequent verify
//	    demonstrates rejection;
//
//	karousos-audit faultinject -dir rundir -op bit-flip:7
//	    corrupts the stored advice with a catalogue operator, so a
//	    subsequent verify demonstrates a coded rejection.
//
// Exit codes make the verdict scriptable: 0 the audit accepted, 2 the audit
// rejected (the reason code is printed; -reason-code prints it bare), 1 an
// internal error (bad flags, unreadable files) — so a monitoring wrapper
// can distinguish "the server cheated" from "the audit never ran".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"karousos.dev/karousos"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests drive the CLI
// in-process and assert on exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 1
	}
	var err error
	switch args[0] {
	case "serve":
		err = serveCmd(args[1:], stdout, stderr)
	case "verify":
		return verifyCmd(args[1:], stdout, stderr)
	case "tamper":
		err = tamperCmd(args[1:], stdout, stderr)
	case "faultinject":
		err = faultinjectCmd(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "karousos-audit:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: karousos-audit serve|verify|tamper|faultinject [flags]

  serve       run a workload, write trace.json + advice.bin to -out
  verify      audit a run directory — exits 0 on ACCEPT, 2 on REJECT (with
              a reason code), 1 on internal error ("karousos audit -dir"
              audits a "karousos serve" epoch log)
  tamper      flip one response in the stored trace
  faultinject corrupt the stored advice with a catalogue operator (-op)

reason codes:
  MalformedAdvice LogMismatch GraphCycle IsolationViolation
  OutputMismatch ResourceLimit InternalFault`)
}

func serveCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "wiki", "application: motd, stacks, wiki, feeds")
	n := fs.Int("n", 600, "number of requests")
	conc := fs.Int("conc", 30, "concurrent requests")
	seed := fs.Int64("seed", 42, "workload and scheduler seed")
	out := fs.String("out", "karousos-run", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := harness.SpecByName(*app)
	if err != nil {
		return err
	}
	reqs, err := workload.For(*app, workload.Mixed, *n, *seed)
	if err != nil {
		return err
	}
	run, err := karousos.Serve(spec, reqs, *conc, *seed, karousos.CollectKarousos)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	traceJSON, err := json.MarshalIndent(run.Trace, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "trace.json"), traceJSON, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "advice.bin"), run.Karousos.MarshalBinary(), 0o644); err != nil {
		return err
	}
	meta, err := json.Marshal(map[string]any{"app": *app})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "meta.json"), meta, 0o644); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "served %d requests (%s, conc %d) in %v; %d conflicts\n",
		*n, *app, *conc, run.Elapsed, run.Conflicts)
	fmt.Fprintf(stdout, "wrote %s/trace.json (%d events) and %s/advice.bin (%.1f KiB)\n",
		*out, len(run.Trace.Events), *out, float64(run.Karousos.Size())/1024)
	return nil
}

func loadRun(dir string) (karousos.AppSpec, *karousos.Trace, []byte, error) {
	metaJSON, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return karousos.AppSpec{}, nil, nil, err
	}
	var meta struct{ App string }
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return karousos.AppSpec{}, nil, nil, err
	}
	spec, err := harness.SpecByName(meta.App)
	if err != nil {
		return karousos.AppSpec{}, nil, nil, err
	}
	traceJSON, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		return karousos.AppSpec{}, nil, nil, err
	}
	var tr karousos.Trace
	if err := json.Unmarshal(traceJSON, &tr); err != nil {
		return karousos.AppSpec{}, nil, nil, err
	}
	normalizeTrace(&tr)
	adv, err := os.ReadFile(filepath.Join(dir, "advice.bin"))
	if err != nil {
		return karousos.AppSpec{}, nil, nil, err
	}
	return spec, &tr, adv, nil
}

// normalizeTrace re-canonicalizes values after the JSON round trip (JSON
// decodes map values as map[string]interface{}, which is already the
// canonical representation, but numbers inside may need no coercion — this
// is belt and braces for hand-edited traces).
func normalizeTrace(tr *karousos.Trace) {
	for i := range tr.Events {
		tr.Events[i].Data = canon(tr.Events[i].Data)
	}
}

func canon(v karousos.V) karousos.V {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = canon(e)
		}
		return x
	case []any:
		for i, e := range x {
			x[i] = canon(e)
		}
		return x
	default:
		return v
	}
}

func verifyCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "karousos-run", "run directory from `serve`")
	graph := fs.String("graph", "", "write the execution graph G as Graphviz DOT to this file (cycles highlighted)")
	reasonCode := fs.Bool("reason-code", false, "on rejection, print only the bare reason code on stdout")
	deadline := fs.Duration("deadline", karousos.DefaultLimits().Deadline, "wall-clock budget for the audit (0 = unbounded)")
	faultSpec := fs.String("faultinject", "", "corrupt the advice with a catalogue operator (\"op\" or \"op:seed\") before auditing")
	workers := fs.Int("workers", 0, "audit parallelism: 0 = GOMAXPROCS, 1 = sequential (verdict identical at every setting)")
	memoOn := fs.Bool("memo", false, "memoize re-execution across epochs (content-addressed tag-group cache; verdict identical on or off)")
	memoMax := fs.Int("memo-max-bytes", 256<<20, "memo cache byte budget when -memo is set (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	spec, tr, advBytes, err := loadRun(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "karousos-audit:", err)
		return 1
	}
	if *faultSpec != "" {
		if advBytes, err = karousos.ApplyFault(*faultSpec, advBytes); err != nil {
			fmt.Fprintln(stderr, "karousos-audit:", err)
			return 1
		}
	}
	lim := karousos.DefaultLimits()
	lim.Deadline = *deadline
	var cache *karousos.MemoCache
	if *memoOn {
		// A run directory is one epoch, so the cache cannot hit — but the
		// flag exercises keying and the publish path.
		cache = karousos.NewMemoCache(*memoMax)
	}

	start := time.Now()
	var verdict *karousos.VerifyResult
	if err := lim.CheckAdviceBytes(len(advBytes)); err != nil {
		verdict = &karousos.VerifyResult{Elapsed: time.Since(start), Err: err}
	} else if adv, err := karousos.UnmarshalAdvice(advBytes); err != nil {
		verdict = &karousos.VerifyResult{Elapsed: time.Since(start), Err: err}
	} else if *graph != "" {
		f, err := os.Create(*graph)
		if err != nil {
			fmt.Fprintln(stderr, "karousos-audit:", err)
			return 1
		}
		defer f.Close()
		verdict = karousos.VerifyWith(spec, tr, adv, karousos.VerifyOptions{Workers: *workers, DumpGraph: f, Memo: cache})
		fmt.Fprintf(stdout, "wrote execution graph to %s\n", *graph)
	} else {
		verdict = karousos.VerifyWith(spec, tr, adv, karousos.VerifyOptions{Limits: lim, Workers: *workers, Memo: cache})
	}
	if verdict.Err != nil {
		code := karousos.RejectCodeOf(verdict.Err)
		if code == "" {
			// Not a structured rejection — the advice failed to decode.
			// At this boundary that is the MalformedAdvice verdict: the
			// server shipped bytes that are not advice.
			code = karousos.RejectMalformedAdvice
		}
		if *reasonCode {
			fmt.Fprintln(stdout, code)
		}
		fmt.Fprintf(stderr, "AUDIT REJECTED [%s] after %v: %v\n", code, verdict.Elapsed, verdict.Err)
		return 2
	}
	fmt.Fprintf(stdout, "AUDIT ACCEPTED in %v: %d requests, %d groups, %d handlers re-run, graph %d nodes / %d edges\n",
		verdict.Elapsed, verdict.Stats.Requests, verdict.Stats.Groups,
		verdict.Stats.HandlersRerun, verdict.Stats.GraphNodes, verdict.Stats.GraphEdges)
	return 0
}

func tamperCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tamper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "karousos-run", "run directory from `serve`")
	if err := fs.Parse(args); err != nil {
		return err
	}

	path := filepath.Join(*dir, "trace.json")
	traceJSON, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tr karousos.Trace
	if err := json.Unmarshal(traceJSON, &tr); err != nil {
		return err
	}
	for i := range tr.Events {
		if tr.Events[i].Kind == karousos.TraceResp {
			tr.Events[i].Data = karousos.Map("status", "tampered")
			fmt.Fprintf(stdout, "tampered response of %s\n", tr.Events[i].RID)
			break
		}
	}
	out, err := json.MarshalIndent(&tr, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func faultinjectCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("faultinject", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "karousos-run", "run directory from `serve`")
	spec := fs.String("op", "", "operator spec, \"op\" or \"op:seed\" (see -list)")
	out := fs.String("out", "", "output path for the corrupted advice (default: overwrite <dir>/advice.bin)")
	list := fs.Bool("list", false, "list the operator catalogue and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, op := range karousos.FaultCatalogue() {
			fmt.Fprintf(stdout, "%-18s %-9s %s\n", op.Name, op.Kind, op.Desc)
		}
		return nil
	}
	if *spec == "" {
		return fmt.Errorf("faultinject: -op is required (try -list)")
	}
	path := filepath.Join(*dir, "advice.bin")
	wire, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mut, err := karousos.ApplyFault(*spec, wire)
	if err != nil {
		return err
	}
	if *out == "" {
		*out = path
	}
	if err := os.WriteFile(*out, mut, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "applied %s: %d bytes -> %d bytes at %s\n", *spec, len(wire), len(mut), *out)
	return nil
}
