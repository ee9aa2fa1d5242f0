package iofault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// PinJSON persists v as the write-once JSON sidecar at path. A sidecar
// labels evidence — which application wrote an epoch log, which map routed
// a topology — so once epochs are sealed under it, it must never change: a
// restart that finds the file holding the same value writes nothing, and
// one that finds a different value is refused with both named, instead of
// silently relabelling sealed epochs an auditor will later re-execute under
// the wrong label. An absent file is created through a temp file and a
// rename, so a process killed mid-boot leaves either no sidecar (the next
// boot writes it) or a whole one, never a torn one. No fsync: every boot
// re-checks the file, so there is nothing a lost write can go stale
// against.
func PinJSON[T any](fsys FS, path string, v T) error {
	want, err := json.Marshal(v)
	if err != nil {
		return err
	}
	blob, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		var have T
		if err := json.Unmarshal(blob, &have); err != nil {
			return fmt.Errorf("%s is unreadable, refusing to relabel the evidence beside it: %w", path, err)
		}
		// Compared decoded, so formatting and field order never matter.
		if got, err := json.Marshal(have); err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("%s records %s; refusing to relabel the evidence beside it as %s", path, blob, want)
		}
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, want, 0o644); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}
