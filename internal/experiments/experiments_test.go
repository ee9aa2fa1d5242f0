package experiments

import (
	"strings"
	"testing"
)

func tinyConfig() Config {
	return Config{Requests: 30, Warmup: 6, Trials: 1, Conc: []int{1, 4}, Seed: 7}
}

func TestAllFiguresProducePanels(t *testing.T) {
	cfg := tinyConfig()
	for _, n := range Figures() {
		panels := Figure(n, cfg)
		if len(panels) == 0 {
			t.Fatalf("figure %d produced no panels", n)
		}
		for _, p := range panels {
			if p.Title == "" || len(p.Header) == 0 {
				t.Errorf("figure %d: panel missing title or header", n)
			}
			// Most panels sweep the concurrency axis; the Figure-7 worker
			// sweep has one row per audit worker level instead.
			wantRows := len(cfg.Conc)
			if strings.Contains(p.Title, "worker sweep") {
				wantRows = len(cfg.workerLevels())
			}
			if len(p.Rows) != wantRows {
				t.Errorf("figure %d %q: %d rows, want %d", n, p.Title, len(p.Rows), wantRows)
			}
			for _, row := range p.Rows {
				if len(row) != len(p.Header) {
					t.Errorf("figure %d %q: ragged row %v", n, p.Title, row)
				}
			}
		}
	}
}

func TestUnknownFigurePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown figure should panic")
		}
	}()
	Figure(99, tinyConfig())
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Requests != 600 || cfg.Warmup != 120 {
		t.Error("defaults should match the paper's 600/120 setup")
	}
	if len(cfg.Conc) == 0 || cfg.Conc[0] != 1 || cfg.Conc[len(cfg.Conc)-1] != 60 {
		t.Error("concurrency sweep should span 1..60")
	}
}
