package iofault

import (
	"testing"
	"time"
)

// fire arms one operator and renders which of 40 matching calls fired, plus
// the scale draw taken after each fire when scale is set.
func fire(t *testing.T, op string, arm Arm, scale bool) (fires, draws string) {
	t.Helper()
	in := NewInjector(nil)
	if err := in.Arm(op, arm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a := in.next(CallRead, "x")
		if a == nil {
			fires += "0"
			continue
		}
		fires += "1"
		if scale {
			draws += string(rune('0' + a.scale(2)))
		}
	}
	return fires, draws
}

// TestSeededScheduleIsPinned holds the fire sequence of a seeded schedule
// to what it has always produced for the same (seed, times, after), so
// existing scenario seeds keep reproducing. "scaled" rows take one scale
// draw per fire, as the latency operator does.
func TestSeededScheduleIsPinned(t *testing.T) {
	for _, tc := range []struct {
		op     string
		arm    Arm
		scaled bool
		fires  string
		draws  string
	}{
		{OpTransientEIO, Arm{Times: 5}, false, "1111100000000000000000000000000000000000", ""},
		{OpTransientEIO, Arm{Times: 5, After: 3}, false, "0001111100000000000000000000000000000000", ""},
		{OpTransientEIO, Arm{Seed: 11, Times: -1}, false, "1001001010010101001011001010010101001001", ""},
		{OpTransientEIO, Arm{Seed: 11, Times: -1, After: 3}, false, "0001001001010010101001011001010010101001", ""},
		{OpTransientEIO, Arm{Seed: 11, Times: 5}, false, "1001001010010000000000000000000000000000", ""},
		{OpTransientEIO, Arm{Seed: 23, Times: -1}, false, "0010100111100111010010100101101100101110", ""},
		{OpTransientEIO, Arm{Seed: 23, Times: 5, After: 3}, false, "0000010100111000000000000000000000000000", ""},

		{OpLatency, Arm{Times: 5}, true, "1111100000000000000000000000000000000000", "22222"},
		{OpLatency, Arm{Seed: 11, Times: -1}, true, "1001010100110101001101011110011001001001", "23212433241121332134"},
		{OpLatency, Arm{Seed: 11, Times: 5, After: 3}, true, "0001001010100100000000000000000000000000", "23212"},
		{OpLatency, Arm{Seed: 23, Times: -1}, true, "0010111101010101001100110011001010010110", "21241433222444442241"},
	} {
		fires, draws := fire(t, tc.op, tc.arm, tc.scaled)
		if fires != tc.fires || draws != tc.draws {
			t.Errorf("%s %+v:\n  fires %s\n  want  %s\n  draws %q want %q", tc.op, tc.arm, fires, tc.fires, draws, tc.draws)
		}
	}
}

func TestParseSpec(t *testing.T) {
	op, a, err := parseSpec("enospc:9:-1")
	if err != nil || op != "enospc" || a.Seed != 9 || a.Times != -1 {
		t.Fatalf("parseSpec(enospc:9:-1) = %q %+v %v", op, a, err)
	}
	if op, a, err = parseSpec("latency"); err != nil || op != "latency" || a != (Arm{}) {
		t.Fatalf("parseSpec(latency) = %q %+v %v", op, a, err)
	}
	for _, bad := range []string{"enospc:x", "enospc:1:y", "enospc:1:2:3", "blackhole::1"} {
		if _, _, err := parseSpec(bad); err == nil {
			t.Errorf("parseSpec(%q) accepted", bad)
		}
	}
}

// TestArmFiltersAndHeal covers the catalogue lookup, the call and target
// filters, sustained defaults, and the counters that survive healing.
func TestArmFiltersAndHeal(t *testing.T) {
	in := NewInjector(nil)
	if err := in.Arm("no-such-op", Arm{}); err == nil {
		t.Fatal("unknown operator armed")
	}
	if err := in.Arm(OpRenameFail, Arm{Times: -1, Target: "east"}); err != nil {
		t.Fatal(err)
	}
	if in.next(CallWrite, "east") != nil || in.next(CallRename, "west") != nil {
		t.Fatal("operator fired outside its call or target filter")
	}
	if a := in.next(CallRename, "north-east"); a == nil || a.op.name != OpRenameFail {
		t.Fatalf("matching call did not fire: %+v", a)
	}
	if err := in.ArmSpec(OpLatency, "west"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if in.next(CallWrite, "west") == nil {
			t.Fatal("a sustained operator armed from a bare spec stopped firing")
		}
	}
	in.Heal()
	if in.next(CallWrite, "west") != nil || in.next(CallRename, "east") != nil {
		t.Fatal("Heal left an operator armed")
	}
	if got := in.Fired(); got[OpRenameFail] != 1 || got[OpLatency] != 3 {
		t.Fatalf("Fired after heal = %v, want rename-fail:1 latency:3", got)
	}
	if got := in.Counts(); got[CallRename] != 3 || got[CallWrite] != 5 {
		t.Fatalf("Counts = %v, want rename:3 write:5", got)
	}
}

// TestRetryDelay: delays double from retryBase, stay within [d/2, d], and
// cap at retryMax.
func TestRetryDelay(t *testing.T) {
	for i, want := range []time.Duration{2, 4, 8, 16, 32, 64, 100, 100} {
		want *= time.Millisecond
		for j := 0; j < 20; j++ {
			if d := retryDelay(i); d < want/2 || d > want {
				t.Fatalf("retryDelay(%d) = %v, want within [%v, %v]", i, d, want/2, want)
			}
		}
	}
	if d := retryDelay(200); d > retryMax || d <= 0 {
		t.Fatalf("retryDelay(200) = %v: shift overflow escaped the cap", d)
	}
}
