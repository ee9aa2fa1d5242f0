package server_test

import (
	"fmt"
	"sync"
	"testing"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/workload"
)

// drainingApp wraps every handler of app so that, after each every-th
// request handler's body has run, drain is called — while that request is
// still in flight (its emitted handlers pending, wiki's stats handler among
// them) and, at windows above one, while others are too. every 0 never
// drains.
func drainingApp(app *core.App, every int, drain func()) *core.App {
	wrapped := *app
	wrapped.Funcs = make(map[core.FunctionID]core.HandlerFunc, len(app.Funcs))
	var mu sync.Mutex
	seen := 0
	for id, fn := range app.Funcs {
		wrapped.Funcs[id] = func(ctx *core.Context, payload *mv.MV) {
			fn(ctx, payload)
			if every == 0 || ctx.Event() != app.RequestEvent {
				return
			}
			mu.Lock()
			seen++
			due := seen%every == 0
			mu.Unlock()
			if due {
				drain()
			}
		}
	}
	return &wrapped
}

// TestDrainedAdviceReencodes: the encoding of every advice DrainAdvice hands
// back decodes and re-encodes to the same bytes, for every app, dialect set,
// admission window and worker count, with drains after every request, every
// seventh request, and only at the end — drains taken while requests are in
// flight, whose back-reference tables and carried state the wire must keep.
func TestDrainedAdviceReencodes(t *testing.T) {
	modes := []struct {
		name     string
		kar, oro bool
	}{{"karousos", true, false}, {"orochi-js", false, true}, {"both", true, true}}
	for _, app := range []string{"motd", "stacks", "wiki", "feeds"} {
		spec, err := harness.SpecByName(app)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.For(app, workload.Mixed, 36, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			for _, window := range []int{1, 4, 15} {
				for _, workers := range []int{1, 4} {
					for _, every := range []int{1, 7, 0} {
						name := fmt.Sprintf("%s/%s/window%d/workers%d/every%d", app, m.name, window, workers, every)
						t.Run(name, func(t *testing.T) {
							checkDrains(t, spec, reqs, m.kar, m.oro, window, workers, every)
						})
					}
				}
			}
		}
	}
}

func checkDrains(t *testing.T, spec harness.AppSpec, reqs []server.Request, kar, oro bool, window, workers, every int) {
	t.Helper()
	var (
		srv            *server.Server
		mu             sync.Mutex // parallel workers drain from their handlers
		drains, logged int
	)
	drain := func() {
		mu.Lock()
		defer mu.Unlock()
		k, o := srv.DrainAdvice()
		drains++
		for _, d := range []struct {
			name      string
			collected bool
			got       *advice.Advice
		}{{"karousos", kar, k}, {"orochi-js", oro, o}} {
			if !d.collected {
				if d.got != nil {
					t.Errorf("drain %d: %s not collected but drained", drains, d.name)
				}
				continue
			}
			blob := d.got.MarshalBinary()
			dec, err := advice.UnmarshalBinary(blob)
			if err != nil {
				t.Errorf("drain %d: %s advice does not decode: %v", drains, d.name, err)
				continue
			}
			if again := dec.MarshalBinary(); string(again) != string(blob) {
				t.Errorf("drain %d: %s advice (%d bytes) re-encodes to %d different bytes",
					drains, d.name, len(blob), len(again))
			}
			logged += len(d.got.VarLogs) + len(d.got.HandlerLogs) + len(d.got.TxLogs)
		}
	}
	app, store := spec.New()
	srv = server.New(server.Config{
		App: drainingApp(app, every, drain), Store: store, Seed: 42, Workers: workers,
		CollectKarousos: kar, CollectOrochi: oro,
	})
	if _, err := srv.Run(reqs, window); err != nil {
		t.Fatal(err)
	}
	drain()
	if every > 0 && drains < len(reqs)/every {
		t.Errorf("%d drains, want at least %d", drains, len(reqs)/every)
	}
	if logged == 0 {
		t.Error("no drain held a log entry: the guard compared empty advice")
	}
}
