package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func units(ms []declaredMetric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestContract runs a scaled-down pass of every workload, traced and
// untraced, and holds what the harness emits equal — in both directions — to
// what BENCHMARK.json declares, so neither can drift from the other.
func TestContract(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want declared
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}

	defs := workloads(2)
	var got, names []string
	for _, d := range defs {
		got = append(got, d.Name)
	}
	for _, w := range want.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(got)
	sort.Strings(names)
	if !slices.Equal(got, names) {
		t.Fatalf("workloads: harness has %v, BENCHMARK.json declares %v", got, names)
	}

	cfg := config{Seed: 42, Seconds: 0.25, WorkDir: t.TempDir(), OutDir: t.TempDir(), Nproc: 2, SetupRepeats: 1}
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			res, err := runWorkload(def, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					def.Name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			declaredUnits := units(want.EndToEnd)
			if traced {
				declaredUnits = units(want.PerLayer)
			}
			for name, m := range res.Metrics {
				if u, ok := declaredUnits[name]; !ok {
					t.Errorf("%s traced=%v emits %s, which BENCHMARK.json does not declare", def.Name, traced, name)
				} else if u != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", def.Name, name, m.Unit, u)
				}
			}
			for name := range declaredUnits {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v does not emit declared metric %s", def.Name, traced, name)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, name, m.Value)
					}
				}
			}
		}
	}
}
