// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A goroutine of the serving or audit plane that nothing joins keeps its
// epoch's state alive and may write evidence after the seal; a package
// guards against that by running its tests through Main:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long Main waits for goroutines that are still winding down
// (a closed listener's accept loop, a drained worker) to exit.
const grace = 5 * time.Second

// Main runs the tests and, when they pass, waits up to grace for every
// goroutine running this module's code to exit. Any that remain fail the
// binary, their stacks printed.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := leaked(grace); len(stacks) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests:\n\n%s\n", len(stacks), strings.Join(stacks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked returns the stacks of the module's goroutines still alive after
// waiting up to grace, the caller's own (the first in the dump) excluded.
func leaked(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var stacks []string
		for i, g := range strings.Split(string(buf[:n]), "\n\n") {
			if i > 0 && strings.Contains(g, "karousos.dev/") {
				stacks = append(stacks, g)
			}
		}
		if len(stacks) == 0 || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(20 * time.Millisecond)
	}
}
