package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// This file implements the canonical binary encoding of values. It is the
// single wire form shared by the advice codec (internal/advice) and the
// epoch log's trace segments (internal/epochlog): one encoding means the
// trace digest recorded in an epoch manifest can be recomputed from segment
// payloads byte-for-byte, and the advice codec's hostile-input hardening
// (length clamps) protects every consumer.
//
// The format is tag bytes, unsigned varints, explicit lengths. Maps encode
// in sorted key order, so Equal values encode to equal bytes. The decoder
// treats its input as untrusted: every declared length is clamped against
// the remaining input divided by the element's minimum wire size, so a few
// declared bytes cannot preallocate hundreds of megabytes.

// Value tags of the canonical binary encoding.
const (
	tagNil   byte = 0
	tagFalse byte = 1
	tagTrue  byte = 2
	tagNum   byte = 3
	tagStr   byte = 4
	tagList  byte = 5
	tagMap   byte = 6
	// tagRef codes a back-reference: a list or map that repeats one written
	// in full earlier in the same variable log (RefWriter, RefReader).
	tagRef byte = 7
)

// AppendBinary appends the canonical binary encoding of v to dst and
// returns the extended slice. v must be canonical (see Normalize); an
// unencodable kind panics, as it can only arise from a bug in our own
// runtime, never from untrusted input.
func AppendBinary(dst []byte, v V) []byte {
	return (*RefWriter)(nil).AppendBinary(dst, v)
}

// RefWriter is the encoding side of one variable log's back-references.
// Every list and map it writes in full is numbered, in post-order, from 0;
// a container that is one value (Same) with a numbered one is written as
// tagRef and its number instead, when that is shorter than the numbered
// container's own encoding, so a back-reference never grows the output.
// Values are immutable (see the package comment), so a container seen
// again by identity has the bytes it had, and finding the repeat costs one
// lookup rather than an encode. The table holds the containers it has
// numbered, so none is freed and its address reused while it lives.
//
// A small flat container — at most maxFlatElems scalars — that is not one
// value with a numbered container is also looked up by its canonical
// encoding, so the equal entries an application builds afresh (motd's
// history repeats a handful of messages) are one container on the wire and
// one value once decoded. Encoding it to look it up costs what writing it
// in full does.
//
// A nil *RefWriter writes every container in full: the canonical encoding.
// The zero value is ready to use; it is not safe for concurrent use.
type RefWriter struct {
	seen IdentMap[written]
	// flat maps a small flat container's canonical encoding to its number.
	flat    map[string]written
	scratch []byte
	n       int // containers written in full so far
}

// maxFlatElems bounds the containers RefWriter looks up by their encoding.
const maxFlatElems = 16

// written is a container's number and the length of its full encoding.
type written struct{ k, size int }

// AppendBinary appends v's encoding against the table to dst.
func (w *RefWriter) AppendBinary(dst []byte, v V) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil)
	case bool:
		if x {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case float64:
		dst = append(dst, tagNum)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	case string:
		dst = append(dst, tagStr)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	case []V, map[string]V:
	default:
		panic(fmt.Sprintf("value: unencodable value kind %T", v))
	}
	id, known := IdentOf(v)
	var flat []byte // v's canonical encoding, when v is small and flat
	if w != nil && known {
		r, ok := w.seen.Get(id)
		if !ok && isFlat(v) {
			w.scratch = AppendBinary(w.scratch[:0], v)
			flat = w.scratch
			if r, ok = w.flat[string(flat)]; ok {
				w.seen.Put(id, r)
			}
		}
		if ok && 1+uvarintLen(uint64(r.k)) < r.size {
			dst = append(dst, tagRef)
			return binary.AppendUvarint(dst, uint64(r.k))
		}
	}
	start := len(dst)
	switch x := v.(type) {
	case []V:
		dst = append(dst, tagList)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, el := range x {
			dst = w.AppendBinary(dst, el)
		}
	case map[string]V:
		dst = append(dst, tagMap)
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = w.AppendBinary(dst, x[k])
		}
	}
	if w == nil {
		return dst
	}
	if _, ok := w.seen.Get(id); known && !ok {
		r := written{k: w.n, size: len(dst) - start}
		w.seen.Put(id, r)
		if flat != nil {
			if w.flat == nil {
				w.flat = make(map[string]written)
			}
			w.flat[string(flat)] = r
		}
	}
	w.n++
	return dst
}

// isFlat reports whether v is a list or map of at most maxFlatElems
// scalars.
func isFlat(v V) bool {
	switch x := v.(type) {
	case []V:
		if len(x) > maxFlatElems {
			return false
		}
		for _, el := range x {
			if !isScalar(el) {
				return false
			}
		}
	case map[string]V:
		if len(x) > maxFlatElems {
			return false
		}
		for _, el := range x {
			if !isScalar(el) {
				return false
			}
		}
	}
	return true
}

func isScalar(v V) bool {
	switch v.(type) {
	case []V, map[string]V:
		return false
	}
	return true
}

// uvarintLen is len(binary.AppendUvarint(nil, x)).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// ErrTruncated is returned when the decoder runs out of input.
var ErrTruncated = errors.New("value: truncated input")

// DecodeBinary decodes one canonically-encoded value from the front of buf,
// returning the value and the number of bytes consumed. Trailing bytes are
// the caller's concern.
func DecodeBinary(buf []byte) (V, int, error) {
	return (*Interner)(nil).DecodeBinary(buf)
}

// maxInternLen bounds the strings an Interner shares. Identifiers, map keys
// and short messages repeat; a long string is usually unique, and hashing it
// into the table would cost what copying it does.
const maxInternLen = 128

// maxInternEntries bounds an Interner's table. Honest advice repeats a few
// thousand distinct strings at most; hostile advice made of distinct short
// strings would otherwise grow the table by a map entry per string on top of
// the strings themselves. Past the bound, strings are copied as if uninterned.
const maxInternEntries = 1 << 16

// Interner shares one copy of every short string among everything decoded
// through it. An epoch's advice names the same request IDs, handler IDs,
// events, map keys and messages hundreds of times over, so without sharing,
// decoding spends most of its allocations re-making strings it has already
// made. Containers are not looked up: a list or map a variable log repeats
// is a back-reference on the wire (RefReader), decoded as the one value.
//
// The zero value is ready to use; a nil *Interner copies every string. An
// Interner is not safe for concurrent use: make one per decode, and drop it
// with the decode. Its table is bounded by maxInternEntries strings of at
// most maxInternLen bytes, so hostile input cannot grow it past that.
type Interner struct {
	// strs maps a string to its shared copy, boxed once so that a string
	// value shares the interface header too.
	strs map[string]V
}

// String returns b as a string, the same copy for every equal b.
func (in *Interner) String(b []byte) string {
	if v, ok := in.lookup(b); ok {
		return v.(string)
	}
	return string(b)
}

// boxed is String boxed into a V, sharing the box as well.
func (in *Interner) boxed(b []byte) V {
	if v, ok := in.lookup(b); ok {
		return v
	}
	return string(b)
}

// lookup returns the shared copy of b, making it on first sight; ok is false
// when b is not shared: empty, longer than maxInternLen, or the table is full.
func (in *Interner) lookup(b []byte) (v V, ok bool) {
	if in == nil || len(b) == 0 || len(b) > maxInternLen {
		return nil, false
	}
	if v, ok := in.strs[string(b)]; ok {
		return v, true
	}
	if len(in.strs) >= maxInternEntries {
		return nil, false
	}
	if in.strs == nil {
		in.strs = make(map[string]V)
	}
	s := string(b)
	v = s
	in.strs[s] = v
	return v, true
}

// DecodeBinary is the package-level DecodeBinary with every short string of
// the value shared through in. A back-reference is malformed here.
func (in *Interner) DecodeBinary(buf []byte) (V, int, error) {
	v, n, _, err := in.DecodeRefs(buf, nil, 0)
	return v, n, err
}

// RefReader is the decoding side of one variable log's back-references:
// every list and map decoded in full through it, in post-order, with its
// expanded length — the length of its encoding with every back-reference
// inside it replaced by its referent's. A back-reference decodes to the
// numbered container itself, so the value it repeats is one value (Same)
// wherever it recurs, and Equal and Sizes keep their identity fast paths.
//
// Sharing a decoded container among the entries that repeat it is sound
// only because values are immutable (see the package comment): the
// verifier and the multivalue layer never write into a value, and
// applications derive new state through appkit.With, Without and Append.
// TestDecodedValuesSurviveAudit (internal/auditd) guards the rule.
//
// A back-reference names only a container already in the table: forward,
// self and ancestor references (an ancestor is numbered only once its
// encoding ends) are malformed, and so is any reference when there is no
// table. The zero value is ready to use; it is not safe for concurrent use.
type RefReader struct {
	vals  []V
	sizes []int
}

// DecodeRefs is DecodeBinary for one value of a variable log: a
// back-reference resolves against refs (nil: none is valid), and every
// container decoded in full joins refs. Back-references may expand the
// value by at most maxExtra bytes past its n wire bytes; extra is how many
// they did. Bounding the expansion as references resolve, at the cost of
// an addition each, rejects a doubling chain in time linear in its wire
// length.
func (in *Interner) DecodeRefs(buf []byte, refs *RefReader, maxExtra int) (v V, n, extra int, err error) {
	d := binDecoder{buf: buf, in: in, refs: refs, maxExtra: maxExtra}
	if v, err = d.value(); err != nil {
		return nil, 0, 0, err
	}
	return v, d.off, d.extra, nil
}

// smallInts holds the integers 0–255 boxed once. Counters, indexes and
// flags in logged state are mostly small integers, and boxing a float64
// into a V otherwise allocates for every one decoded.
var smallInts = func() (t [256]V) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

type binDecoder struct {
	buf  []byte
	off  int
	in   *Interner
	refs *RefReader
	// extra is how many bytes the back-references resolved so far expand
	// the value by; maxExtra bounds it.
	extra, maxExtra int
}

func (d *binDecoder) byteAt() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *binDecoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return x, nil
}

// lengthElems reads a collection length whose elements each encode to at
// least minElemSize bytes and clamps the declared count against the
// remaining input, keeping decode-side allocation proportional to input.
func (d *binDecoder) lengthElems(minElemSize int) (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(d.buf)-d.off)/uint64(minElemSize) {
		return 0, fmt.Errorf("value: declared length %d exceeds remaining input", x)
	}
	return int(x), nil
}

// str reads a length-prefixed string's bytes; the caller decides whether
// they become a map key or a boxed value.
func (d *binDecoder) str() ([]byte, error) {
	n, err := d.lengthElems(1)
	if err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *binDecoder) value() (V, error) {
	start := d.off
	tag, err := d.byteAt()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagNum:
		if len(d.buf)-d.off < 8 {
			return nil, ErrTruncated
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
		f := math.Float64frombits(bits)
		// The bits comparison keeps -0 (== 0, other bits) off the table.
		if i := int(f); f >= 0 && f < float64(len(smallInts)) && math.Float64bits(float64(i)) == bits {
			return smallInts[i], nil
		}
		return f, nil
	case tagStr:
		b, err := d.str()
		if err != nil {
			return nil, err
		}
		return d.in.boxed(b), nil
	case tagList, tagMap:
		extra := d.extra
		v, err := d.container(tag)
		if err != nil {
			return nil, err
		}
		if d.refs != nil {
			d.refs.vals = append(d.refs.vals, v)
			d.refs.sizes = append(d.refs.sizes, d.off-start+d.extra-extra)
		}
		return v, nil
	case tagRef:
		x, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		k, err := d.refs.clampRef(x)
		if err != nil {
			return nil, err
		}
		if err := d.clampExpanded(d.refs.sizes[k] - (d.off - start)); err != nil {
			return nil, err
		}
		return d.refs.vals[k], nil
	default:
		return nil, fmt.Errorf("value: unknown value tag %d", tag)
	}
}

// clampRef checks a back-reference's index against the containers decoded
// in full so far.
func (r *RefReader) clampRef(x uint64) (int, error) {
	if r == nil {
		return 0, errors.New("value: back-reference outside a variable log")
	}
	if x >= uint64(len(r.vals)) {
		return 0, fmt.Errorf("value: back-reference %d to one of %d containers decoded so far", x, len(r.vals))
	}
	return int(x), nil
}

// clampExpanded adds a resolved back-reference's expansion to the value's
// and checks the total against maxExtra.
func (d *binDecoder) clampExpanded(n int) error {
	if n > d.maxExtra-d.extra {
		return fmt.Errorf("value: back-references expand the value past %d extra bytes", d.maxExtra)
	}
	d.extra += n
	return nil
}

// container decodes the body of a list or map whose tag has been read.
func (d *binDecoder) container(tag byte) (V, error) {
	if tag == tagList {
		n, err := d.lengthElems(1)
		if err != nil {
			return nil, err
		}
		out := make([]V, n)
		for i := range out {
			if out[i], err = d.value(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// A key is at least its length varint; a value at least its tag.
	n, err := d.lengthElems(2)
	if err != nil {
		return nil, err
	}
	out := make(map[string]V, n)
	for i := 0; i < n; i++ {
		kb, err := d.str()
		if err != nil {
			return nil, err
		}
		k := d.in.String(kb)
		if out[k], err = d.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
