// Fixture for detlint: seeded nondeterminism next to the benign shapes the
// analyzer must not flag.
package detlintfix

import (
	"fmt"
	"math/rand" // want `imports math/rand`
	"sort"
	"time"
)

// sum is order-insensitive: integer accumulation commutes.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// leak collects map keys but never sorts them, so iteration order escapes.
func leak(m map[string]int) []string {
	var out []string
	for k := range m { // want `never sorted in this function`
		out = append(out, k)
	}
	return out
}

// collectSorted is the blessed collect-then-sort idiom.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// escapes returns whichever key iteration happens to visit first.
func escapes(m map[string]int) string {
	for k := range m { // want `iterates a map in nondeterministic order`
		return k
	}
	return ""
}

// invert writes only map entries keyed per iteration: commutes.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func wallClock() time.Time {
	return time.Now() // want `calls time.Now`
}

func pick(a, b chan int) int {
	select { // want `select with 2 communication cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// one-case select blocks deterministically.
func one(a chan int) int {
	select {
	case v := <-a:
		return v
	}
}

func use() { fmt.Println(rand.Int()) }

// a named launch is not the fan-out idiom: its writes are not checked here,
// so it is flagged whether or not it writes shared state.
func launchNamed(done chan struct{}) {
	go helper(done) // want `other than a func literal`
	<-done
}

func helper(done chan struct{}) { close(done) }

// a function value is flagged the same way.
func launchValue(f func(), done chan struct{}) {
	go f() // want `other than a func literal`
	<-done
}

// outerWrite races the goroutines' merge order into shared state.
func outerWrite(items []int) int {
	total := 0
	done := make(chan struct{}, len(items))
	for range items {
		go func() {
			total++ // want `assigns outer variable "total"`
			done <- struct{}{}
		}()
	}
	for range items {
		<-done
	}
	return total
}

// outerAssign is the same defect through a plain assignment.
func outerAssign(c chan int) {
	last := 0
	go func() {
		last = <-c // want `assigns outer variable "last"`
	}()
	_ = last
}
