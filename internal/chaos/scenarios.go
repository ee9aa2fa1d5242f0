package chaos

import (
	"fmt"
	"sort"
)

// builtins are the named scenarios, each a Scenario value with the seed
// written into the places the script uses it.
var builtins = map[string]func(seed int64) Scenario{
	// pipeline: no fault at all — the end-to-end loop itself. One collector
	// behind the gateway serves a workload with epochs sealing mid-run
	// while the live auditor follows; every epoch must accept.
	"pipeline": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "wiki", Shards: 1, EpochRequests: 50},
			Load:     Load{Seed: seed, Requests: 200},
		}
	},
	// pipeline-sharded: the same loop fanned over four shards.
	"pipeline-sharded": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "wiki", Shards: 4, EpochRequests: 10},
			Load:     Load{Seed: seed, Requests: 120},
		}
	},
	// acceptance: transient EIO under the auditor from the start, an advice
	// outage for epoch 2 (a full disk — seed 0 keeps it gapless, a disk
	// stays full, it does not flicker — while the trusted trace keeps
	// flowing), then the disk recovers and the collector process dies and
	// restarts, so epoch 3 begins at a Fresh boundary. Costs exactly the
	// outage epoch's auditability.
	"acceptance": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "motd", Shards: 1, EpochRequests: 10},
			Load:     Load{Seed: seed, Requests: 40},
			Steps: []Step{
				{At: 0, Do: DoArm, On: OnAuditd, Spec: fmt.Sprintf("transient-eio:%d:3", seed)},
				{At: 10, Do: DoArm, On: OnCollector, Spec: "enospc:0:-1", Target: ".advice"},
				{At: 20, Do: DoHeal, On: OnCollector},
				{At: 20, Do: DoCrash},
				{At: 20, Do: DoRestart},
			},
			Expect: Expect{Unauditable: []int{0}},
		}
	},
	// shard-kill: one of four collectors is killed mid-epoch without sealing
	// and restarted at once. Costs the abandoned partial epoch's
	// auditability on that shard, nothing anywhere else.
	"shard-kill": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "wiki", Shards: 4, EpochRequests: 5},
			Load:     Load{Seed: seed, Requests: 60},
			Steps: []Step{
				{At: 30, Do: DoCrash, Shard: 1},
				{At: 30, Do: DoRestart, Shard: 1},
			},
			Expect: Expect{Unauditable: []int{1}},
		}
	},
	// partition: the victim's link is blackholed mid-epoch, its collector
	// killed while dark (the partial epoch's advice is lost), then the link
	// heals and a fresh incarnation rejoins. The victim's keyspace degrades
	// to hinted 503s behind an open breaker; the survivors never notice.
	"partition": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "wiki", Shards: 4, EpochRequests: 5},
			Load:     Load{Seed: seed, Requests: 80},
			Steps: []Step{
				{At: 25, Do: DoArm, On: OnLink, Shard: 1, Spec: fmt.Sprintf("blackhole:%d", seed), MidEpoch: true},
				{At: 40, Do: DoCrash, Shard: 1},
				{At: 55, Do: DoHeal, On: OnLink, Shard: 1},
				{At: 55, Do: DoRestart, Shard: 1},
			},
			Expect: Expect{Unauditable: []int{1}},
		}
	},
	// flap: the victim's link refuses dials in seed-derived bursts for the
	// middle of the run, with no process death. Refused dials are provably
	// unsent, so the gateway's retries are sound and nothing strands.
	"flap": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "wiki", Shards: 4, EpochRequests: 5},
			Load:     Load{Seed: seed, Requests: 60},
			Steps: []Step{
				{At: 15, Do: DoArm, On: OnLink, Shard: 1, Spec: fmt.Sprintf("flap:%d", seed), MidEpoch: true},
				{At: 45, Do: DoHeal, On: OnLink, Shard: 1},
			},
		}
	},
	// gateway-restart: the stateless front door is replaced mid-run with no
	// fault armed. Nothing observable may change.
	"gateway-restart": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "wiki", Shards: 4, EpochRequests: 5},
			Load:     Load{Seed: seed, Requests: 40},
			Steps:    []Step{{At: 20, Do: DoRestartGateway}},
		}
	},
	// overload-burst: every arrival due at once against an admission window
	// a quarter of the offered concurrency.
	"overload-burst": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "motd", Shards: 1, EpochRequests: 16, MaxInflight: 4},
			Load:     Load{Seed: seed, Requests: 96, Outstanding: 16},
		}
	},
	// overload-slow-fsync: the same burst with latency on every trace-file
	// call, so each group commit's fsync stalls and pressure backs up into
	// the admission window.
	"overload-slow-fsync": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "motd", Shards: 1, EpochRequests: 8, MaxInflight: 4},
			Load:     Load{Seed: seed, Requests: 48, Outstanding: 16},
			Steps:    []Step{{At: 0, Do: DoArm, On: OnCollector, Spec: "latency", Target: ".trace"}},
		}
	},
	// overload-slow-client: the burst with every 4th body trickled a few
	// bytes at a time. Slow bodies are read in full before admission, so
	// they tie up neither admission slots nor the commit path.
	"overload-slow-client": func(seed int64) Scenario {
		return Scenario{
			Topology: Topology{App: "stacks", Shards: 1, EpochRequests: 8, MaxInflight: 4},
			Load:     Load{Seed: seed, Requests: 32, Outstanding: 16, SlowEvery: 4},
		}
	},
}

// BuiltinNames lists the built-in scenarios, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Builtin returns the named built-in scenario at the given seed. A
// non-empty app replaces the scenario's own application.
func Builtin(name, app string, seed int64) (Scenario, error) {
	build, ok := builtins[name]
	if !ok {
		return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, BuiltinNames())
	}
	sc := build(seed)
	if app != "" {
		sc.Topology.App = app
	}
	return sc, nil
}
