// True-negative fixture for detlint: every would-be finding carries a
// reviewed //karousos:detlint-ok directive, so the analyzer must stay
// silent.
package detlintok

import "time"

func stamp() time.Time {
	//karousos:detlint-ok operator log timestamp, not part of any verdict
	return time.Now()
}

func drain(done chan struct{}, c chan int) int {
	n := 0
	//karousos:detlint-ok daemon plumbing; the result does not depend on case choice
	select {
	case <-done:
	case v := <-c:
		n = v
	}
	return n
}

func firstKey(m map[string]int) string {
	for k := range m { //karousos:detlint-ok any representative key serves; callers treat the result as unordered
		return k
	}
	return ""
}

// fanOut is the deterministic fan-out idiom the goroutine check must bless
// with no directive: inline func literals, goroutine-local state, results in
// indexed slots, merged in canonical order after the pool drains.
func fanOut(items []int) []int {
	results := make([]int, len(items))
	done := make(chan struct{}, len(items))
	for i := range items {
		go func(i int) {
			v := items[i] * 2  // goroutine-local
			results[i] = v     // indexed slot: per-goroutine ownership
			done <- struct{}{} // channel send
		}(i)
	}
	for range items {
		<-done
	}
	return results // canonical (index) order, schedule-independent
}
