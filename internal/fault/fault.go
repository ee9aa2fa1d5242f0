// Package fault is the kernel shared by the repo's fault injectors: the
// "op[:seed[:times]]" spec grammar, the seeded arm/heal Schedule that
// decides which intercepted call an armed operator fires on, and the
// bounded, context-aware Backoff every retry loop sleeps through.
//
// The kernel knows nothing about disks. internal/iofault hands it an
// operator catalogue and keeps what is its own — what a fired operator does
// to the call, the FaultError it surfaces, and the Classify ladder that
// reads it back. internal/faultinject (advice mutation, no schedule)
// borrows only ParseSpec.
//
// Every armed operator fires on a schedule derived from its seed and the
// sequence of matching calls alone, so a scenario replayed with the same
// seed injects the same fault history.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Call names one interception point of an injector (a VFS entry point).
// Operators declare which calls they intercept; the Schedule counts every
// call by this name.
type Call string

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

// ParseSpec parses the "op", "op:seed", or "op:seed:times" grammar. It
// checks shape only; whether op exists is the catalogue owner's question.
func ParseSpec(spec string) (op string, a Arm, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return "", Arm{}, fmt.Errorf("fault: bad spec %q: want op[:seed[:times]]", spec)
	}
	if len(parts) >= 2 {
		if a.Seed, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return "", Arm{}, fmt.Errorf("fault: bad seed in spec %q: %v", spec, err)
		}
	}
	if len(parts) == 3 {
		if a.Times, err = strconv.Atoi(parts[2]); err != nil {
			return "", Arm{}, fmt.Errorf("fault: bad times in spec %q: %v", spec, err)
		}
	}
	return parts[0], a, nil
}

// Operator is one catalogue entry.
type Operator struct {
	Name string
	// Calls are the interception points the operator applies to; nil means
	// every call the injector makes.
	Calls []Call
	// Sustained operators model a condition rather than an event (latency):
	// ArmSpec defaults their Times to "until healed", since one fire is not
	// a weather pattern.
	Sustained bool
}

// Armed is one scheduled operator instance, returned by Next when it fires.
type Armed struct {
	// Op is the fired operator's name.
	Op string

	s         *Schedule
	op        Operator
	arm       Arm
	r         *rand.Rand
	remaining int // fires left; -1 = unbounded
	skip      int // matching calls to let through before the next fire
	fired     int
}

func (a *Armed) matches(call Call, target string) bool {
	if a.arm.Target != "" && !strings.Contains(target, a.arm.Target) {
		return false
	}
	if a.op.Calls == nil {
		return true
	}
	for _, c := range a.op.Calls {
		if c == call {
			return true
		}
	}
	return false
}

// next consumes one matching call and reports whether the operator fires.
func (a *Armed) next() bool {
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

// Scale returns a multiplier in 1..4 drawn from the operator's seed — the
// size of one injected delay — or unseeded when the operator has no seed.
// The draw shares the operator's random stream with its fire schedule, so
// it must be taken exactly once per fire to keep a seed reproducible.
func (a *Armed) Scale(unseeded int) int {
	if a.r == nil {
		return unseeded
	}
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	return 1 + a.r.Intn(4)
}

// Schedule is the seeded arm/heal table behind an injector. It is safe for
// concurrent use; the schedule is serialized under one mutex, so a
// single-threaded caller sees a fully deterministic fault history.
type Schedule struct {
	pkg string
	ops []Operator

	mu      sync.Mutex
	armed   []*Armed
	counts  map[Call]int
	retired map[string]int // fire counts of healed operators
}

// NewSchedule returns an empty fault plan over the catalogue; pkg prefixes
// error messages with the owning injector's name.
func NewSchedule(pkg string, ops []Operator) *Schedule {
	return &Schedule{pkg: pkg, ops: ops, counts: make(map[Call]int), retired: make(map[string]int)}
}

// Names lists the catalogue's operator names, sorted.
func Names(ops []Operator) []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	sort.Strings(names)
	return names
}

func (s *Schedule) operator(name string) (Operator, error) {
	for _, op := range s.ops {
		if op.Name == name {
			return op, nil
		}
	}
	return Operator{}, fmt.Errorf("%s: unknown operator %q (have %s)", s.pkg, name, strings.Join(Names(s.ops), ", "))
}

// Arm schedules one operator. Unknown names error; arming is additive.
func (s *Schedule) Arm(name string, arm Arm) error {
	op, err := s.operator(name)
	if err != nil {
		return err
	}
	a := &Armed{Op: name, s: s, op: op, arm: arm, remaining: arm.Times, skip: arm.After}
	if arm.Times == 0 {
		a.remaining = 1
	}
	if arm.Seed != 0 {
		a.r = rand.New(rand.NewSource(arm.Seed))
		a.skip += a.r.Intn(3)
	}
	s.mu.Lock()
	s.armed = append(s.armed, a)
	s.mu.Unlock()
	return nil
}

// ArmSpec arms from an "op[:seed[:times]]" spec with an optional target
// filter.
func (s *Schedule) ArmSpec(spec, target string) error {
	name, arm, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	op, err := s.operator(name)
	if err != nil {
		return err
	}
	arm.Target = target
	if arm.Times == 0 && op.Sustained {
		arm.Times = -1
	}
	return s.Arm(name, arm)
}

// Heal disarms every operator: the fault condition is over. Counters
// survive.
func (s *Schedule) Heal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.armed {
		s.retired[a.Op] += a.fired
	}
	s.armed = nil
}

// Counts returns how many calls of each kind the schedule has seen
// (faulted or not), for assertions like "the checkpoint writer fsyncs its
// directory".
func (s *Schedule) Counts() map[Call]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Call]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Fired returns fire counts by operator name, armed and healed alike.
func (s *Schedule) Fired() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.retired))
	for name, n := range s.retired {
		out[name] = n
	}
	for _, a := range s.armed {
		out[a.Op] += a.fired
	}
	return out
}

// Next counts one intercepted call and returns the operator that fires on
// it, or nil to let the call proceed. At most one operator fires per call:
// the first armed one whose filter matches and whose schedule is due.
func (s *Schedule) Next(call Call, target string) *Armed {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[call]++
	for _, a := range s.armed {
		if a.matches(call, target) && a.next() {
			return a
		}
	}
	return nil
}
