package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"karousos.dev/karousos/internal/chaos"
)

// chaosCmd replays one scenario — a built-in or a JSON chaos.Scenario —
// against an in-process gateway + shards + live auditor. The fault-free
// built-ins `pipeline` and `pipeline-sharded` are the end-to-end smoke.
func chaosCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("chaos", stderr)
	name := fs.String("scenario", "acceptance", "built-in scenario: "+strings.Join(chaos.BuiltinNames(), ", "))
	file := fs.String("scenario-file", "", "JSON chaos.Scenario file (replaces -scenario, -app and -seed wholesale)")
	app := fs.String("app", "", "run the built-in scenario against this application instead of its own")
	seed := fs.Int64("seed", 11, "fault-schedule and workload seed")
	dir := fs.String("dir", "", "scenario scratch directory; the topology is left under <dir>/shards (default: a fresh temp dir, removed)")
	verbose := fs.Bool("v", false, "print the full result as JSON")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	var sc chaos.Scenario
	label := *name
	if *file != "" {
		label = *file
		blob, err := os.ReadFile(*file)
		if err != nil {
			return fail(stderr, err)
		}
		if err := json.Unmarshal(blob, &sc); err != nil {
			return fail(stderr, fmt.Errorf("scenario %s: %w", *file, err))
		}
	} else {
		var err error
		if sc, err = chaos.Builtin(*name, *app, *seed); err != nil {
			return fail(stderr, err)
		}
	}
	scratch, cleanup, err := scratchDir(*dir, "karousos-chaos-")
	if err != nil {
		return fail(stderr, err)
	}
	defer cleanup()
	res, err := chaos.Run(scratch, sc)
	if err != nil {
		return fail(stderr, err)
	}
	if *verbose {
		if err := printJSON(stdout, res); err != nil {
			return fail(stderr, err)
		}
	}
	merge := "accepted"
	if m := res.Audit.Merge; m.Code != "" {
		merge = fmt.Sprintf("[%s] %s", m.Code, m.Reason)
	}
	fmt.Fprintf(stdout, "CHAOS %s app=%s shards=%d seed=%d: served=%d shed=%d degraded=%d sealed=%d accepted=%d unauditable=%d rejected=%d auditor-restarts=%d merge=%s\n",
		label, sc.Topology.App, sc.Topology.Shards, sc.Load.Seed, res.Served, res.Shed+res.ShedLocal, res.Degraded,
		res.Sealed, res.Accepted, res.Unauditable, res.Rejected, res.AuditorRestarts, merge)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(stderr, "CHAOS INVARIANT VIOLATED:", v)
		}
		return 2
	}
	fmt.Fprintln(stdout, "CHAOS OK: all invariants held")
	return 0
}
