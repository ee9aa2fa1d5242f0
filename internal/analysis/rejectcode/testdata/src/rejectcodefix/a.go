// Fixture for rejectcode: uncoded Audit-boundary errors.
package rejectcodefix

import (
	"errors"
	"fmt"
)

func AuditBlob(b []byte) error {
	if len(b) == 0 {
		return errors.New("empty blob") // want `uncoded error across the Audit boundary`
	}
	if b[0] == 0xff {
		return fmt.Errorf("bad magic %x", b[0]) // want `uncoded error across the Audit boundary`
	}
	return nil
}

// auditWrapped wraps the coded cause with %w: allowed.
func auditWrapped(cause error) error {
	if cause != nil {
		return fmt.Errorf("audit: %w", cause)
	}
	return nil
}

// notBoundary is not an Audit-prefixed function; uncoded errors are its
// caller's concern.
func notBoundary() error {
	return errors.New("plain")
}
