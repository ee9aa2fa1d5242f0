// Fixture for leaklint: true negatives — every join/cancel idiom the
// serving and audit planes actually use.
package leaklintok

import (
	"context"
	"sync"
)

// waited: WaitGroup accounting in the literal.
func waited(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// cancellable: the body watches a context.
func cancellable(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// collected: the launcher drains the channel the body sends on.
func collected(n int) {
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			ch <- 1
		}()
	}
	for i := 0; i < n; i++ {
		<-ch
	}
}

// passedChan: the channel arrives as an argument bound to a parameter.
func passedChan() {
	results := make(chan int, 1)
	go func(out chan int) {
		out <- 1
	}(results)
	<-results
}

type server struct{}

func (s *server) Serve() error { return nil }
func (s *server) Close() error { return nil }

// tornDown: the launcher's deferred Close reaches the body's server.
func tornDown() {
	s := &server{}
	go func() {
		s.Serve()
	}()
	defer s.Close()
}

// monitor is a named launch: the callee does the accounting.
type sup struct {
	wg sync.WaitGroup
}

func (s *sup) monitor() {
	defer s.wg.Done()
}

func (s *sup) spawn() {
	s.wg.Add(1)
	go s.monitor()
}

// waitReady mirrors the context-parameter idiom.
func (s *sup) waitReady(ctx context.Context) error {
	return ctx.Err()
}

func (s *sup) restart() {
	go s.waitReady(context.Background())
}

// committer mirrors epochlog: the worker drains a channel and joins when
// the launcher closes it.
type log struct {
	commitCh chan int
}

func (l *log) committer() {
	for range l.commitCh {
	}
}

func (l *log) start() {
	go l.committer()
}
