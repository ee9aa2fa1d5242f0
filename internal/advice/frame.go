package advice

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// The KADV4 frame is what MarshalBinary ships:
//
//	"KADV4\x00" | uvarint len(body) | raw DEFLATE (flate.BestSpeed) of body
//
// where body is the KADV3 body appendBody lays out. The frame is strict: the
// declared length passes clampBodyLen before anything is allocated, the
// payload must inflate to exactly that many bytes, its stream must end in a
// final block, and no byte may follow the stream.
//
// The codec shares no mutable state between calls. The flate writer, the
// body scratch buffer and the flate reader are reused through free lists,
// which hand each value to one goroutine at a time, so concurrent encodes
// and decodes (the auditor's prefetch workers) share nothing; the frame
// MarshalBinary returns is a fresh allocation, and a decoded Advice copies
// every string out of the body it was decoded from.

const frameMagic = "KADV4\x00"

// frameLevel is the one compression level: the fastest, since the deflate
// runs on the request that trips a seal, and the body's redundancy —
// identifiers and map keys repeated from entry to entry — is what even the
// fastest level finds.
const frameLevel = flate.BestSpeed

// A DEFLATE stream expands its input at most maxInflateRatio times: a
// 258-byte match coded in two bits, a one-bit length and a one-bit distance
// code. inflateSlack covers the block headers around the smallest payloads.
const (
	maxInflateRatio = 1032
	inflateSlack    = 1 << 10
)

// clampBodyLen bounds a frame's declared body length: no more than
// MaxExpandedBytes, and no more than a payload of payloadLen bytes can
// inflate to. The body buffer is allocated from its result, so a few hostile
// bytes cannot declare a huge body.
func clampBodyLen(declared uint64, payloadLen int) (int, error) {
	bound := uint64(MaxExpandedBytes)
	if b := uint64(payloadLen)*maxInflateRatio + inflateSlack; b < bound {
		bound = b
	}
	if declared > bound {
		return 0, fmt.Errorf("advice: frame declares a %d-byte body, more than its %d-byte payload may inflate to (%d)", declared, payloadLen, bound)
	}
	return int(declared), nil
}

// splitFrame reads a KADV4 frame's header: its payload and its clamped
// declared body length. framed is false, with no error, when data is not a
// frame (a bare body, or garbage the body decoder refuses).
func splitFrame(data []byte) (payload []byte, size int, framed bool, err error) {
	if !bytes.HasPrefix(data, []byte(frameMagic)) {
		return nil, 0, false, nil
	}
	rest := data[len(frameMagic):]
	declared, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, 0, true, errTruncated
	}
	payload = rest[k:]
	size, err = clampBodyLen(declared, len(payload))
	return payload, size, true, err
}

// BodySize returns the length of the uncompressed body an advice blob
// declares, inflating nothing: a frame's declared length once it passes the
// clamp, or a bare body's own length. The auditor holds it to its advice
// byte limit as well as the blob's own length.
func BodySize(data []byte) (int, error) {
	_, size, framed, err := splitFrame(data)
	if !framed {
		return len(data), nil
	}
	return size, err
}

// freeList keeps up to cap(l) idle values for reuse; get hands a value to
// one caller, who owns it until put. Unlike a sync.Pool it is not emptied
// by garbage collection: a collector's heap is a few megabytes and is
// collected several times between two seals, so a pooled flate writer
// would be gone at every seal, and each seal would allocate flate's 1.2 MB
// compressor afresh.
type freeList[T any] chan *T

// get takes an idle value, or makes one with alloc if there is none.
func (l freeList[T]) get(alloc func() *T) *T {
	select {
	case v := <-l:
		return v
	default:
		return alloc()
	}
}

// put keeps v unless the list is full.
func (l freeList[T]) put(v *T) {
	select {
	case l <- v:
	default:
	}
}

// idleCodecs bounds the idle deflaters and inflaters kept: a collector seals
// one epoch at a time, and an auditor decodes on a few prefetch workers.
// maxIdleBuf bounds the scratch buffer an idle one keeps, so one outsized
// blob is not held for the life of the process.
const (
	idleCodecs = 4
	maxIdleBuf = 16 << 20
)

// deflater is one encode's scratch: the body, the compressed payload, and
// the writer that compresses one into the other.
type deflater struct {
	body []byte
	out  bytes.Buffer
	zw   *flate.Writer
}

var deflaters = make(freeList[deflater], idleCodecs)

func newDeflater() *deflater {
	d := new(deflater)
	d.zw, _ = flate.NewWriter(&d.out, frameLevel) // the level is valid
	return d
}

// MarshalBinary encodes the advice as a KADV4 frame. Equal advice encodes to
// equal bytes: the body is canonical, and a reset flate writer compresses it
// as a fresh one would.
func (a *Advice) MarshalBinary() []byte {
	d := deflaters.get(newDeflater)
	defer deflaters.put(d)
	d.body = a.appendBody(d.body[:0])
	d.out.Reset()
	d.zw.Reset(&d.out)
	if _, err := d.zw.Write(d.body); err != nil {
		panic("advice: deflate into memory: " + err.Error())
	}
	if err := d.zw.Close(); err != nil {
		panic("advice: deflate into memory: " + err.Error())
	}
	var hdr [len(frameMagic) + binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(append(hdr[:0], frameMagic...), uint64(len(d.body)))
	frame := make([]byte, len(h)+d.out.Len())
	copy(frame[copy(frame, h):], d.out.Bytes())
	if cap(d.body) > maxIdleBuf {
		d.body, d.out = nil, bytes.Buffer{}
	}
	return frame
}

// inflater is one decode's scratch: the payload reader, the flate reader
// over it, and the buffer the body inflates into.
type inflater struct {
	src  bytes.Reader
	zr   io.ReadCloser
	body []byte
}

var inflaters = make(freeList[inflater], idleCodecs)

func newInflater() *inflater { return new(inflater) }

// inflate inflates payload, which must be one DEFLATE stream of exactly size
// bytes that ends in a final block and is followed by nothing. It reads
// through a limit of size+1, so a payload that inflates past its declared
// size is refused one byte after it, and returns a slice of z's buffer,
// valid until z is reused.
func (z *inflater) inflate(payload []byte, size int) ([]byte, error) {
	z.src.Reset(payload)
	defer z.src.Reset(nil)
	if z.zr == nil {
		z.zr = flate.NewReader(&z.src)
	} else if err := z.zr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, err
	}
	buf := z.body
	if cap(buf) < size+1 {
		buf = make([]byte, size+1)
		if size < maxIdleBuf {
			z.body = buf
		}
	}
	buf = buf[:size+1]
	lr := io.LimitedReader{R: z.zr, N: int64(size) + 1}
	n := 0
	for {
		k, err := lr.Read(buf[n:])
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			// A stream cut before its final block is io.ErrUnexpectedEOF.
			return nil, fmt.Errorf("advice: frame payload: %w", err)
		}
	}
	switch {
	case n > size:
		return nil, fmt.Errorf("advice: frame payload inflates past its declared %d bytes", size)
	case n < size:
		return nil, fmt.Errorf("advice: frame payload inflates to %d bytes, declares %d", n, size)
	case z.src.Len() != 0:
		return nil, fmt.Errorf("advice: %d bytes follow the frame's stream", z.src.Len())
	}
	return buf[:n], nil
}
