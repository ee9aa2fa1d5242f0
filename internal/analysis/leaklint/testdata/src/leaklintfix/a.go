// Fixture for leaklint: seeded leaks.
package leaklintfix

var counter int

// fireAndForget leaks: no WaitGroup, no context, no channel, no teardown.
func fireAndForget() {
	go func() { // want `goroutine has no join or cancel path`
		counter++
	}()
}

// worker has no join evidence of its own.
func worker() {
	counter++
}

func launchWorker() {
	go worker() // want `go launches worker, which has no join or cancel path`
}
