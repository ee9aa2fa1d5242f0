package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"karousos.dev/karousos/internal/auditd"
	"karousos.dev/karousos/internal/chaos"
	"karousos.dev/karousos/internal/fleet"
	"karousos.dev/karousos/internal/loadgen"
	"karousos.dev/karousos/internal/shard"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/workload"
)

// fleetCmd runs the topology as a supervised fleet of real OS processes.
// The supervisor adds no trust: a member that dies is restarted on the same
// epoch-log directory and its own crash recovery seals whatever the death
// stranded as Degraded, which the audit grades Unauditable — the fleet buys
// liveness, never a cover story.
func fleetCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return fleetServeCmd(args[1:], stdout, stderr)
		case "accept":
			return fleetAcceptCmd(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, `usage: karousos fleet serve|accept [flags]

  serve   supervise a live fleet: one collector process per shard plus the
          gateway; SIGTERM stops the gateway first, then drains and seals
          every collector
  accept  spawn a fleet, kill one collector mid-burst, verify supervised
          recovery and a clean post-drain audit; exits 0 if every
          invariant held, 2 on a violation, 1 on runner breakage`)
	return 1
}

// freePorts reserves n distinct loopback ports by binding :0 and closing.
// The classic race (another process grabbing the port before the member
// binds it) is accepted: members that lose the race crash on bind and the
// readiness wait reports it.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// fleetSpec is everything needed to spawn one topology as processes.
type fleetSpec struct {
	root          string
	shards        int
	app           string
	epochRequests int
	seed          int64
	budget        int
	gatewayAddr   string // "" = pick a free port
	drain         time.Duration
}

// buildMembers writes the shard map and lays out the member list:
// collectors first, gateway last — Stop walks the list in reverse, so the
// front door dies before the shards it routes into. Every member is this
// binary running a public subcommand: what the supervisor runs is exactly
// what an operator would.
func buildMembers(spec fleetSpec) ([]fleet.MemberSpec, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	m := shard.Map{Shards: spec.shards, KeyFields: []string{"id", "page"}}
	if err := shard.WriteMap(nil, spec.root, m); err != nil {
		return nil, "", err
	}
	ports, err := freePorts(spec.shards + 1)
	if err != nil {
		return nil, "", err
	}
	gwAddr := spec.gatewayAddr
	if gwAddr == "" {
		gwAddr = fmt.Sprintf("127.0.0.1:%d", ports[spec.shards])
	}
	members := make([]fleet.MemberSpec, 0, spec.shards+1)
	backends := make([]string, 0, spec.shards)
	for s := 0; s < spec.shards; s++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[s])
		backends = append(backends, "http://"+addr)
		members = append(members, fleet.MemberSpec{
			Name: fmt.Sprintf("shard-%02d", s),
			Argv: []string{exe, "serve",
				"-app", spec.app,
				"-dir", shard.Dir(spec.root, s),
				"-addr", addr,
				"-epoch-requests", strconv.Itoa(spec.epochRequests),
				"-seed", strconv.FormatInt(spec.seed+int64(s), 10),
				"-drain", spec.drain.String(),
			},
			ReadyURL:      "http://" + addr + "/readyz",
			RestartBudget: spec.budget,
		})
	}
	members = append(members, fleet.MemberSpec{
		Name: "gateway",
		Argv: []string{exe, "gateway",
			"-root", spec.root,
			"-backends", strings.Join(backends, ","),
			"-addr", gwAddr,
			"-per-try-timeout", "1s",
			"-drain", spec.drain.String(),
		},
		ReadyURL:      "http://" + gwAddr + "/readyz",
		RestartBudget: spec.budget,
	})
	return members, "http://" + gwAddr, nil
}

func fleetServeCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("fleet serve", stderr)
	app := fs.String("app", "wiki", "application served by every shard")
	shards := fs.Int("shards", 4, "shard count")
	root := fs.String("root", "karousos-fleet", "topology root (shardmap.json + shard-NN logs)")
	addr := fs.String("addr", "127.0.0.1:8081", "gateway listen address")
	epochReqs := fs.Int("epoch-requests", 50, "per-shard seal threshold")
	seed := fs.Int64("seed", 42, "scheduler seed; shard s serves with seed+s")
	budget := fs.Int("restart-budget", fleet.DefaultRestartBudget, "restarts the supervisor pays per member")
	drain := fs.Duration("drain", 15*time.Second, "grace period for drain-and-seal on SIGTERM")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	members, gwURL, err := buildMembers(fleetSpec{
		root: *root, shards: *shards, app: *app,
		epochRequests: *epochReqs, seed: *seed, budget: *budget,
		gatewayAddr: *addr, drain: *drain,
	})
	if err != nil {
		return fail(stderr, err)
	}
	sup, err := fleet.New(fleet.Config{Members: members, Output: stdout})
	if err != nil {
		return fail(stderr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := sup.Start(ctx); err != nil {
		sup.Stop(*drain) //karousos:errladder-ok the start failure is the error that surfaces
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "fleet up: %d collectors + gateway at %s (SIGTERM to drain and seal)\n", *shards, gwURL)
	<-ctx.Done()
	stop() // a second signal during the drain kills the supervisor outright
	if err := sup.Stop(*drain); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "fleet stopped: every member drained and sealed")
	return 0
}

func fleetAcceptCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("fleet accept", stderr)
	shards := fs.Int("shards", 3, "shard count")
	n := fs.Int("n", 60, "requests to drive through the gateway")
	epochReqs := fs.Int("epoch-requests", 5, "per-shard seal threshold")
	seed := fs.Int64("seed", 11, "workload and scheduler seed")
	root := fs.String("root", "", "topology root (default: a fresh temp dir)")
	killAt := fs.Int("kill-at", -1, "SIGKILL the victim collector at the first mid-epoch request index >= this (-1 = n/3)")
	drain := fs.Duration("drain", 10*time.Second, "drain-and-seal grace on stop")
	verbose := fs.Bool("v", false, "print the full result as JSON")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *shards <= 0 || *n <= 0 || *epochReqs <= 0 {
		return fail(stderr, errors.New("fleet accept needs positive -shards, -n and -epoch-requests"))
	}
	topRoot, cleanup, err := scratchDir(*root, "karousos-fleet-")
	if err != nil {
		return fail(stderr, err)
	}
	defer cleanup()
	if *killAt < 0 {
		*killAt = *n / 3
	}
	res, err := runAccept(topRoot, *shards, *n, *epochReqs, *seed, *killAt, *drain, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	if *verbose {
		if err := printJSON(stdout, res); err != nil {
			return fail(stderr, err)
		}
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(stdout, "FLEET ACCEPT: INVARIANT VIOLATED (%d):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  - %s\n", v)
		}
		return 2
	}
	fmt.Fprintf(stdout, "FLEET ACCEPT OK: served=%d degraded=%d restarts=%d accepted=%d unauditable=%d — kill, supervised restart, drain and audit all held\n",
		res.Served, res.Degraded, res.VictimRestarts, res.Accepted, res.Unauditable)
	return 0
}

// acceptResult is what the acceptance scenario observed: the driver's
// arrival ledger, the honest-run grader's tallies, and the supervision
// facts only a process fleet has.
type acceptResult struct {
	loadgen.Ledger
	chaos.Tally
	VictimRestarts int      `json:"victimRestarts"`
	Merge          string   `json:"merge"`
	Violations     []string `json:"violations,omitempty"`
}

// runAccept drives the supervised-fleet acceptance scenario. The error
// return is runner breakage; invariant breaches land in Violations.
func runAccept(root string, shards, n, epochReqs int, seed int64, killAt int, drain time.Duration, logw io.Writer) (*acceptResult, error) {
	members, gwURL, err := buildMembers(fleetSpec{
		root: root, shards: shards, app: "wiki",
		epochRequests: epochReqs, seed: seed, budget: fleet.DefaultRestartBudget,
		drain: drain,
	})
	if err != nil {
		return nil, err
	}
	sup, err := fleet.New(fleet.Config{
		Members:        members,
		Output:         logw,
		RestartBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sup.Start(ctx); err != nil {
		sup.Stop(drain) //karousos:errladder-ok the start failure is the error that surfaces
		return nil, err
	}
	// Stop is idempotent: the deferred one only acts on an early return.
	defer sup.Stop(drain) //karousos:errladder-ok cleanup on the error path; the first error surfaces

	res := &acceptResult{}
	violate := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}
	victim := 1 % shards
	victimName, victimKey := fmt.Sprintf("shard-%02d", victim), strconv.Itoa(victim)

	victimServed, killed := 0, false
	load, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: gwURL,
		// The kill waits for "mid-epoch": the victim must hold a nonempty
		// open epoch so SIGKILL provably strands evidence for the audit to
		// grade Unauditable — a kill on a boundary would prove less.
		Before: func(i int) error {
			if killed || i < killAt || victimServed%epochReqs == 0 {
				return nil
			}
			killed = true
			return sup.Kill(victimName)
		},
		Outcome: func(i int, o loadgen.Outcome) {
			switch {
			case o.Class == loadgen.Served && o.Shard == victimKey:
				victimServed++
			case o.Class == loadgen.Degraded && o.Shard != victimKey:
				violate("request %d: survivor shard %s degraded (victim is %d)", i, o.Shard, victim)
			case o.Class == loadgen.Other || o.Class == loadgen.NoAnswer:
				violate("request %d: %s — a member death must surface as an acked 200, 429 or hinted 503", i, o)
			}
		},
	}, workload.Wiki(n, seed))
	res.Ledger = load.Ledger
	if err != nil {
		return res, err
	}
	if !killed {
		violate("the victim was never killed: kill-at %d left no mid-epoch window in %d requests", killAt, n)
	}

	// Supervised recovery: the dead member must come back within its
	// budget and the gateway's AND-/readyz must flip back to 200.
	recoverDeadline := time.Now().Add(30 * time.Second)
	for killed {
		st := sup.Status()[victim] // members are in shard order, gateway last
		if st.Running && st.Ready {
			res.VictimRestarts = st.Restarts
			if st.Restarts == 0 {
				violate("%s is up but the supervisor recorded no restart", victimName)
			}
			break
		}
		if time.Now().After(recoverDeadline) {
			violate("%s never recovered: %+v", victimName, st)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	probe := &http.Client{Timeout: 30 * time.Second}
	if resp, err := probe.Get(gwURL + "/readyz"); err != nil {
		violate("gateway /readyz after recovery: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			violate("gateway /readyz = %d after recovery, want 200", resp.StatusCode)
		}
	}

	// Drain and seal: gateway first, then every collector's SIGTERM path
	// seals its open epoch.
	if err := sup.Stop(drain); err != nil {
		violate("graceful stop escalated: %v", err)
	}

	// The two shared invariants (DESIGN.md §19.4). SIGKILL included, every
	// RID a client saw 200 for is in a sealed epoch of the shard that served
	// it; and the post-mortem audit — identical across lane and worker
	// counts — grades the victim's stranded epoch Unauditable at worst and
	// accuses nobody.
	_, breaches, err := chaos.AckedSealed(root, load.Acked)
	if err != nil {
		return res, err
	}
	res.Violations = append(res.Violations, breaches...)
	out, diff, err := chaos.Reaudit(context.Background(), auditd.ShardedConfig{Root: root, Limits: verifier.DefaultLimits()})
	if err != nil {
		return res, err
	}
	if diff != "" {
		violate("%s", diff)
	}
	res.Merge = string(out.Merge.Code)
	var owed []int
	if killed {
		owed = []int{victim}
	}
	res.Tally, breaches = chaos.GradeHonest(out, owed)
	res.Violations = append(res.Violations, breaches...)
	return res, nil
}
