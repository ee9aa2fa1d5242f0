package iofault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Arm schedules one armed operator.
type Arm struct {
	// Seed derives the gaps between fires; 0 fires on consecutive matching
	// calls.
	Seed int64
	// Times bounds total fires: 0 means 1, negative means until healed.
	Times int
	// After lets this many matching calls through before the schedule
	// starts (deterministic offset for precision tests).
	After int
	// Target restricts matching to call targets (a path) containing the
	// substring; "" matches everything.
	Target string
}

// operator is one catalogue entry.
type operator struct {
	name string
	// calls are the interception points the operator applies to; nil means
	// every call.
	calls []Call
	// sustained operators model a condition rather than an event (latency):
	// ArmSpec defaults their Times to "until healed", since one fire is not
	// a weather pattern.
	sustained bool
}

// armed is one scheduled operator instance.
type armed struct {
	in        *Injector
	op        operator
	arm       Arm
	r         *rand.Rand
	remaining int // fires left; -1 = unbounded
	skip      int // matching calls to let through before the next fire
	fired     int
}

func (a *armed) matches(call Call, target string) bool {
	if a.arm.Target != "" && !strings.Contains(target, a.arm.Target) {
		return false
	}
	if a.op.calls == nil {
		return true
	}
	for _, c := range a.op.calls {
		if c == call {
			return true
		}
	}
	return false
}

// fires consumes one matching call and reports whether the operator fires.
func (a *armed) fires() bool {
	if a.remaining == 0 {
		return false
	}
	if a.skip > 0 {
		a.skip--
		return false
	}
	if a.remaining > 0 {
		a.remaining--
	}
	a.fired++
	if a.r != nil {
		a.skip = a.r.Intn(3)
	}
	return true
}

// scale returns a multiplier in 1..4 drawn from the operator's seed — the
// size of one injected delay — or unseeded when the operator has no seed.
// The draw shares the operator's random stream with its fire schedule, so
// it must be taken exactly once per fire to keep a seed reproducible.
func (a *armed) scale(unseeded int) int {
	if a.r == nil {
		return unseeded
	}
	a.in.mu.Lock()
	defer a.in.mu.Unlock()
	return 1 + a.r.Intn(4)
}

func lookup(name string) (operator, error) {
	for _, op := range operators {
		if op.name == name {
			return op, nil
		}
	}
	names := make([]string, len(operators))
	for i, op := range operators {
		names[i] = op.name
	}
	sort.Strings(names)
	return operator{}, fmt.Errorf("iofault: unknown operator %q (have %s)", name, strings.Join(names, ", "))
}

// parseSpec parses the "op", "op:seed", or "op:seed:times" grammar. It
// checks shape only; whether op exists is lookup's question.
func parseSpec(spec string) (op string, a Arm, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return "", Arm{}, fmt.Errorf("iofault: bad spec %q: want op[:seed[:times]]", spec)
	}
	if len(parts) >= 2 {
		if a.Seed, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return "", Arm{}, fmt.Errorf("iofault: bad seed in spec %q: %v", spec, err)
		}
	}
	if len(parts) == 3 {
		if a.Times, err = strconv.Atoi(parts[2]); err != nil {
			return "", Arm{}, fmt.Errorf("iofault: bad times in spec %q: %v", spec, err)
		}
	}
	return parts[0], a, nil
}

// Arm schedules one operator. Unknown names error; arming is additive.
func (in *Injector) Arm(name string, arm Arm) error {
	op, err := lookup(name)
	if err != nil {
		return err
	}
	a := &armed{in: in, op: op, arm: arm, remaining: arm.Times, skip: arm.After}
	if arm.Times == 0 {
		a.remaining = 1
	}
	if arm.Seed != 0 {
		a.r = rand.New(rand.NewSource(arm.Seed))
		a.skip += a.r.Intn(3)
	}
	in.mu.Lock()
	in.armed = append(in.armed, a)
	in.mu.Unlock()
	return nil
}

// ArmSpec arms from an "op[:seed[:times]]" spec with an optional target
// filter.
func (in *Injector) ArmSpec(spec, target string) error {
	name, arm, err := parseSpec(spec)
	if err != nil {
		return err
	}
	op, err := lookup(name)
	if err != nil {
		return err
	}
	arm.Target = target
	if arm.Times == 0 && op.sustained {
		arm.Times = -1
	}
	return in.Arm(name, arm)
}

// Heal disarms every operator: the fault condition is over. Counters
// survive.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, a := range in.armed {
		in.retired[a.op.name] += a.fired
	}
	in.armed = nil
}

// Counts returns how many calls of each kind the injector has seen
// (faulted or not), for assertions like "the checkpoint writer fsyncs its
// directory".
func (in *Injector) Counts() map[Call]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Call]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Fired returns fire counts by operator name, armed and healed alike.
func (in *Injector) Fired() map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int, len(in.retired))
	for name, n := range in.retired {
		out[name] = n
	}
	for _, a := range in.armed {
		out[a.op.name] += a.fired
	}
	return out
}

// next counts one intercepted call and returns the operator that fires on
// it, or nil to let the call proceed. At most one operator fires per call:
// the first armed one whose filter matches and whose schedule is due.
func (in *Injector) next(call Call, target string) *armed {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[call]++
	for _, a := range in.armed {
		if a.matches(call, target) && a.fires() {
			return a
		}
	}
	return nil
}
