// Fixture for errladder: raw comparisons and legacy predicates next to the
// blessed errors.Is shape.
package errladderfix

import (
	"errors"
	"os"
)

var errSentinel = errors.New("sentinel")

func rawCompare(err error) bool {
	return err == errSentinel // want `raw error comparison`
}

func rawNotEqual(err error) bool {
	return err != errSentinel // want `raw error comparison`
}

// nil checks are the one raw comparison that is fine.
func nilCompare(err error) bool {
	return err != nil
}

func legacy(err error) bool {
	return os.IsNotExist(err) // want `os.IsNotExist does not unwrap errors`
}

func legacyTimeout(err error) bool {
	return os.IsTimeout(err) // want `os.IsTimeout does not unwrap errors`
}

func handled(err error) bool {
	return errors.Is(err, errSentinel)
}
