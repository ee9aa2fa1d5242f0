package fault

import (
	"context"
	"math/rand"
	"time"
)

// Backoff bounds a retry loop: exponential delay from Base doubling up to
// Max, at most Attempts tries, with jitter in [delay/2, delay] so retriers
// that share a fault do not stampede in phase. Sleeping never affects
// verdicts, so the jitter needs no seed.
type Backoff struct {
	// Base is the first delay (default 2ms).
	Base time.Duration
	// Max caps the delay (default 100ms).
	Max time.Duration
	// Attempts is the total number of tries including the first (default 6).
	Attempts int
	// Sleep replaces the real clock in tests; nil sleeps for real,
	// interruptibly.
	Sleep func(time.Duration)
}

// WithDefaults returns the backoff with zero-valued fields filled in.
func (b Backoff) WithDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 2 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 100 * time.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 6
	}
	return b
}

// Delay returns the jittered delay before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.WithDefaults()
	delay := b.Base << uint(attempt)
	if delay > b.Max || delay <= 0 {
		delay = b.Max
	}
	half := int64(delay / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// Wait sleeps Delay(attempt) or until ctx is done, whichever is sooner,
// and returns ctx's error if it is done by then. A nil ctx never cancels.
func (b Backoff) Wait(ctx context.Context, attempt int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	d := b.Delay(attempt)
	if b.Sleep != nil {
		b.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
