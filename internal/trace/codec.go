package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"karousos.dev/karousos/internal/value"
)

// Canonical binary encoding of trace events, and the trace digest built
// over it. The epoch log (internal/epochlog) frames each event with this
// encoding, and an epoch's manifest records Digest over the sealed events —
// so the digest is recomputable from segment payloads alone and pins the
// trusted channel's contents across process restarts.

// AppendEventBinary appends the canonical binary encoding of e to dst:
// kind byte, rid length + bytes, then the value's canonical encoding.
func AppendEventBinary(dst []byte, e Event) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(e.RID)))
	dst = append(dst, e.RID...)
	return value.AppendBinary(dst, e.Data)
}

// DecodeEventBinary decodes one event from buf, which must contain exactly
// one encoded event (the epoch log's frames carry exact payloads). Its
// strings are shared through in, which may be nil: a trace names each rid
// twice and repeats the same input keys on every request, so a reader of a
// whole epoch passes one Interner for all of its frames.
func DecodeEventBinary(buf []byte, in *value.Interner) (Event, error) {
	var e Event
	if len(buf) == 0 {
		return e, fmt.Errorf("trace: empty event encoding")
	}
	switch Kind(buf[0]) {
	case Req, Resp:
		e.Kind = Kind(buf[0])
	default:
		return e, fmt.Errorf("trace: unknown event kind %d", buf[0])
	}
	off := 1
	n, w := binary.Uvarint(buf[off:])
	if w <= 0 || n > uint64(len(buf)-off-w) {
		return e, fmt.Errorf("trace: truncated event rid")
	}
	off += w
	e.RID = in.String(buf[off : off+int(n)])
	off += int(n)
	v, vn, err := in.DecodeBinary(buf[off:])
	if err != nil {
		return e, fmt.Errorf("trace: event data: %w", err)
	}
	off += vn
	if off != len(buf) {
		return e, fmt.Errorf("trace: %d trailing bytes after event", len(buf)-off)
	}
	e.Data = v
	return e, nil
}

// Digest returns a stable hex-encoded SHA-256 over the canonical encodings
// of the trace's events in order. Equal traces (same events, same order,
// Equal values) digest identically; any reordering, dropped event, or
// altered payload changes it.
func (t *Trace) Digest() string {
	h := sha256.New()
	var buf []byte
	for _, e := range t.Events {
		buf = AppendEventBinary(buf[:0], e)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
