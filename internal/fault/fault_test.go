package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

const (
	callA Call = "a"
	callB Call = "b"
)

var testOps = []Operator{
	{Name: "plain"},
	{Name: "only-a", Calls: []Call{callA}},
	{Name: "weather", Sustained: true},
	{Name: "flap", Sustained: true, Burst: true},
}

// fire arms one operator and renders which of 40 matching calls fired, plus
// the Scale draw taken after each fire when scale is set.
func fire(t *testing.T, op string, arm Arm, scale bool) (fires, draws string) {
	t.Helper()
	s := NewSchedule("test", testOps)
	if err := s.Arm(op, arm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a := s.Next(callA, "x")
		if a == nil {
			fires += "0"
			continue
		}
		fires += "1"
		if scale {
			draws += string(rune('0' + a.Scale(2)))
		}
	}
	return fires, draws
}

// TestSeededScheduleIsPinned holds the fire sequence of a seeded schedule
// to what iofault (transient-eio, latency) and netfault (conn-refused,
// slow-response, flap) produced for the same (seed, times, after) before
// the kernel was extracted, so existing scenario seeds keep reproducing.
// "scaled" rows take one Scale draw per fire, as the latency operators do.
func TestSeededScheduleIsPinned(t *testing.T) {
	for _, tc := range []struct {
		op     string
		arm    Arm
		scaled bool
		fires  string
		draws  string
	}{
		{"plain", Arm{Times: 5}, false, "1111100000000000000000000000000000000000", ""},
		{"plain", Arm{Times: 5, After: 3}, false, "0001111100000000000000000000000000000000", ""},
		{"plain", Arm{Seed: 11, Times: -1}, false, "1001001010010101001011001010010101001001", ""},
		{"plain", Arm{Seed: 11, Times: -1, After: 3}, false, "0001001001010010101001011001010010101001", ""},
		{"plain", Arm{Seed: 11, Times: 5}, false, "1001001010010000000000000000000000000000", ""},
		{"plain", Arm{Seed: 23, Times: -1}, false, "0010100111100111010010100101101100101110", ""},
		{"plain", Arm{Seed: 23, Times: 5, After: 3}, false, "0000010100111000000000000000000000000000", ""},

		{"flap", Arm{Times: 5}, false, "1001100110000000000000000000000000000000", ""},
		{"flap", Arm{Times: 5, After: 3}, false, "0001001100110000000000000000000000000000", ""},
		{"flap", Arm{Seed: 11, Times: -1}, false, "1001110001100110111001000011000110001110", ""},
		{"flap", Arm{Seed: 11, Times: 5, After: 3}, false, "0001001110001000000000000000000000000000", ""},
		{"flap", Arm{Seed: 23, Times: -1}, false, "0010011010010000101100001100011000110011", ""},
		{"flap", Arm{Seed: 23, Times: -1, After: 3}, false, "0000010011010010000101100001100011000110", ""},

		{"weather", Arm{Times: 5}, true, "1111100000000000000000000000000000000000", "22222"},
		{"weather", Arm{Seed: 11, Times: -1}, true, "1001010100110101001101011110011001001001", "23212433241121332134"},
		{"weather", Arm{Seed: 11, Times: 5, After: 3}, true, "0001001010100100000000000000000000000000", "23212"},
		{"weather", Arm{Seed: 23, Times: -1}, true, "0010111101010101001100110011001010010110", "21241433222444442241"},
	} {
		fires, draws := fire(t, tc.op, tc.arm, tc.scaled)
		if fires != tc.fires || draws != tc.draws {
			t.Errorf("%s %+v:\n  fires %s\n  want  %s\n  draws %q want %q", tc.op, tc.arm, fires, tc.fires, draws, tc.draws)
		}
	}
}

func TestParseSpec(t *testing.T) {
	op, a, err := ParseSpec("enospc:9:-1")
	if err != nil || op != "enospc" || a.Seed != 9 || a.Times != -1 {
		t.Fatalf("ParseSpec(enospc:9:-1) = %q %+v %v", op, a, err)
	}
	if op, a, err = ParseSpec("truncate"); err != nil || op != "truncate" || a != (Arm{}) {
		t.Fatalf("ParseSpec(truncate) = %q %+v %v", op, a, err)
	}
	for _, bad := range []string{"enospc:x", "enospc:1:y", "enospc:1:2:3", "blackhole::1"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestArmFiltersAndHeal covers the catalogue lookup, the call and target
// filters, sustained defaults, heal-by-target, and the counters that
// survive healing.
func TestArmFiltersAndHeal(t *testing.T) {
	s := NewSchedule("test", testOps)
	if err := s.Arm("no-such-op", Arm{}); err == nil {
		t.Fatal("unknown operator armed")
	}
	if err := s.ArmSpec("no-such-op:1", ""); err == nil {
		t.Fatal("unknown operator armed from a spec")
	}
	if err := s.Arm("only-a", Arm{Times: -1, Target: "east"}); err != nil {
		t.Fatal(err)
	}
	if s.Next(callB, "east") != nil || s.Next(callA, "west") != nil {
		t.Fatal("operator fired outside its call or target filter")
	}
	if a := s.Next(callA, "north-east"); a == nil || a.Op != "only-a" {
		t.Fatalf("matching call did not fire: %+v", a)
	}
	if err := s.ArmSpec("weather", "west"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if s.Next(callB, "west") == nil {
			t.Fatal("a sustained operator armed from a bare spec stopped firing")
		}
	}
	s.HealTarget("west")
	if s.Next(callB, "west") != nil {
		t.Fatal("healed target still fires")
	}
	if s.Next(callA, "east") == nil {
		t.Fatal("HealTarget disarmed another target's operator")
	}
	s.Heal()
	if s.Next(callA, "east") != nil {
		t.Fatal("Heal left an operator armed")
	}
	if got := s.Fired(); got["only-a"] != 2 || got["weather"] != 3 {
		t.Fatalf("Fired after heal = %v, want only-a:2 weather:3", got)
	}
	if got := s.Counts(); got[callA] != 4 || got[callB] != 5 {
		t.Fatalf("Counts = %v, want a:4 b:5", got)
	}
}

// TestBackoffSchedule: delays double from Base, stay within [d/2, d], and
// cap at Max.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	for i, want := range []time.Duration{10, 20, 40, 80, 80, 80} {
		want *= time.Millisecond
		for j := 0; j < 20; j++ {
			if d := b.Delay(i); d < want/2 || d > want {
				t.Fatalf("Delay(%d) = %v, want within [%v, %v]", i, d, want/2, want)
			}
		}
	}
	if d := b.Delay(200); d > 80*time.Millisecond || d <= 0 {
		t.Fatalf("Delay(200) = %v: shift overflow escaped the cap", d)
	}
}

// TestWaitHonoursCancellation: a cancelled context ends the sleep at once,
// before or during it; the Sleep hook and a nil context both work.
func TestWaitHonoursCancellation(t *testing.T) {
	hour := Backoff{Base: time.Hour, Max: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- hour.Wait(ctx, 0) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait slept through a cancelled context")
	}
	var slept time.Duration
	hooked := Backoff{Base: time.Hour, Max: time.Hour, Sleep: func(d time.Duration) { slept = d }}
	if err := hooked.Wait(nil, 0); err != nil || slept < 30*time.Minute {
		t.Fatalf("hooked Wait(nil) = %v after %v", err, slept)
	}
}
