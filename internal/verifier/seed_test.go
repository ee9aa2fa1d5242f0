// Test-seed plumbing: randomized tests derive their math/rand streams from
// a single logged root seed, so any failure reproduces exactly with
//
//	KAROUSOS_TEST_SEED=<seed> go test ./internal/verifier/...
package verifier_test

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// testSeed returns the root seed for a randomized test and logs it. Set
// KAROUSOS_TEST_SEED to pin the seed when replaying a failure.
func testSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano() // logged below, so a failing run reproduces
	if s := os.Getenv("KAROUSOS_TEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad KAROUSOS_TEST_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("random seed %d (set KAROUSOS_TEST_SEED=%d to reproduce)", seed, seed)
	return seed
}
