// Single-function fixture for advicetaint (inherited from the retired
// intra-procedural advicesize pass): wire-decoded lengths reaching
// allocation sinks with and without clamps.
package advicesizefix

import (
	"encoding/binary"
	"io"
	"math"
)

func decodeUnclamped(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	out := make([]byte, n) // want `make size driven by an unclamped advice-derived value`
	return out
}

// decodeClamped bounds the length against the remaining input first.
func decodeClamped(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	if n > uint64(len(buf)) {
		return nil
	}
	return make([]byte, n)
}

// magnitudeOnly checks against MaxInt32 — a sign/overflow check, not an
// allocation clamp: 2^31 elements is still an allocation bomb.
func magnitudeOnly(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	if n > math.MaxInt32 {
		return nil
	}
	return make([]byte, n) // want `make size driven by an unclamped advice-derived value`
}

// signCheckOnly proves n > 0 does not count as a clamp either.
func signCheckOnly(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	if n > 0 {
		return make([]byte, n) // want `make size driven by an unclamped advice-derived value`
	}
	return nil
}

func readBody(r io.Reader, hdr []byte) ([]byte, error) {
	n := binary.LittleEndian.Uint32(hdr)
	buf := make([]byte, int(n)) // want `make size driven by an unclamped advice-derived value`
	_, err := io.ReadFull(r, buf)
	return buf, err
}

func copyBody(dst io.Writer, src io.Reader, hdr []byte) error {
	n := binary.LittleEndian.Uint64(hdr)
	_, err := io.CopyN(dst, src, int64(n)) // want `io.CopyN size driven by an unclamped advice-derived value`
	return err
}

// viaClampFn passes the length through a clamp* function before allocating.
func viaClampFn(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	clampFrame(n)
	return make([]byte, n)
}

func clampFrame(n uint64) {}

// constBound clamps against a small constant: acceptable.
func constBound(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	if n > 4096 {
		return nil
	}
	return make([]byte, n)
}
