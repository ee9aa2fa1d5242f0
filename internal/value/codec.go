package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
)

// AppendBinary appends the canonical binary encoding of v to dst and
// returns the extended slice. v must be canonical (see Normalize); an
// unencodable kind panics, as it can only arise from a bug in our own
// runtime, never from untrusted input.
func AppendBinary(dst []byte, v V) []byte {
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
	case []V:
		dst = append(dst, tagList)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, el := range x {
			dst = AppendBinary(dst, el)
		}
		return dst
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
			dst = AppendBinary(dst, x[k])
		}
		return dst
	default:
		panic(fmt.Sprintf("value: unencodable value kind %T", v))
	}
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

// maxShareLen bounds the containers an Interner shares: a list or map is
// looked up only if its encoding, tag included, ends within this many bytes.
// Small containers are the ones that repeat — a history entry, a feed item,
// an input — and the scan that finds a container's end before decoding it
// never reads further than this.
const maxShareLen = 256

// maxShareEntries bounds an Interner's container table, as maxInternEntries
// bounds its strings. The table's key bytes are bounded separately, by the
// bytes decoded through the Interner.
const maxShareEntries = 1 << 14

// Interner shares one copy of every short string, and of every small list
// and map, among everything decoded through it. An epoch's advice names the
// same request IDs, handler IDs, events, map keys and messages hundreds of
// times over, and motd logs its whole state, history included, at every
// write — so without sharing, decoding spends most of its allocations
// re-making strings and history entries it has already made. A container is
// shared by its encoding: equal bytes decode to equal values, so a list or
// map whose bytes were decoded before is the earlier value, returned without
// decoding or allocating.
//
// Sharing containers is sound only because no consumer mutates a decoded
// value in place. Applications copy before they change (appkit.With and
// Without, value.Clone), and the verifier and the multivalue layer never
// write into a value they did not make. TestDecodedValuesSurviveAudit
// (internal/auditd) guards the rule: every application in both modes, cold
// and warm, at one and four workers, after which every decoded advice blob
// and trace frame must still re-encode to its bytes.
//
// The zero value is ready to use; a nil *Interner copies every string and
// container. An Interner is not safe for concurrent use: make one per decode,
// and drop it with the decode so the tables never outlive the bytes they
// came from. Both tables are bounded by constants, and the container table's
// key bytes by the bytes decoded through the Interner, so hostile input
// costs at most a table proportional to its own length.
type Interner struct {
	// strs maps a string to its shared copy, boxed once so that a string
	// value shares the interface header too.
	strs map[string]V
	// trees maps the encoding of a small list or map to its shared value;
	// treeBytes is the total length of its keys.
	trees     map[string]V
	treeBytes int
	// decoded counts the bytes consumed by finished DecodeBinary calls.
	decoded int
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

// DecodeBinary is the package-level DecodeBinary with every short string and
// small container of the value shared through in.
func (in *Interner) DecodeBinary(buf []byte) (V, int, error) {
	d := binDecoder{buf: buf, in: in}
	v, err := d.value()
	if err != nil {
		return nil, 0, err
	}
	if in != nil {
		in.decoded += d.off
	}
	return v, d.off, nil
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
	buf []byte
	off int
	in  *Interner
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
		if v, ok := d.shared(start); ok {
			return v, nil
		}
		v, err := d.container(tag)
		if err != nil {
			return nil, err
		}
		d.share(start, v)
		return v, nil
	default:
		return nil, fmt.Errorf("value: unknown value tag %d", tag)
	}
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

// shared returns the Interner's copy of the container whose tag is at start
// and moves past it, when the container's encoding ends within maxShareLen
// bytes and has been decoded through the Interner before. Finding the end
// scans the bytes without allocating.
func (d *binDecoder) shared(start int) (V, bool) {
	if d.in == nil || len(d.in.trees) == 0 {
		return nil, false
	}
	end, ok := skip(d.buf, start, min(len(d.buf), start+maxShareLen))
	if !ok {
		return nil, false
	}
	v, ok := d.in.trees[string(d.buf[start:end])]
	if ok {
		d.off = end
	}
	return v, ok
}

// share offers the container just decoded from d.buf[start:d.off] to the
// Interner's table. It is taken if the encoding is at most maxShareLen
// bytes, the table has room for another entry, and the table's key bytes
// stay within the bytes decoded through the Interner so far — nested
// containers repeat their contents in every enclosing key, and the last
// bound keeps that from outgrowing the input.
func (d *binDecoder) share(start int, v V) {
	in := d.in
	n := d.off - start
	if in == nil || n > maxShareLen || len(in.trees) >= maxShareEntries || in.treeBytes+n > in.decoded+d.off {
		return
	}
	if in.trees == nil {
		in.trees = make(map[string]V)
	}
	in.trees[string(d.buf[start:d.off])] = v
	in.treeBytes += n
}

// skip returns the offset just past the value encoded at off in buf, when
// it ends at or before limit (≤ len(buf)); ok is false when it does not, or
// when the bytes up to limit are malformed — the decoder proper reports
// those. Every level of nesting costs at least two bytes, so the recursion
// is at most limit-off deep.
func skip(buf []byte, off, limit int) (end int, ok bool) {
	if off >= limit {
		return 0, false
	}
	tag := buf[off]
	off++
	switch tag {
	case tagNil, tagFalse, tagTrue:
		return off, true
	case tagNum:
		off += 8
	case tagStr:
		if off, ok = skipStr(buf, off, limit); !ok {
			return 0, false
		}
	case tagList, tagMap:
		n, w := binary.Uvarint(buf[off:limit])
		if w <= 0 || n > uint64(limit-off) {
			return 0, false
		}
		off += w
		for i := uint64(0); i < n; i++ {
			if tag == tagMap {
				if off, ok = skipStr(buf, off, limit); !ok {
					return 0, false
				}
			}
			if off, ok = skip(buf, off, limit); !ok {
				return 0, false
			}
		}
	default:
		return 0, false
	}
	return off, off <= limit
}

// skipStr is skip for a length-prefixed string with no tag: a map key, or
// the body of a string value.
func skipStr(buf []byte, off, limit int) (int, bool) {
	if off >= limit {
		return 0, false
	}
	n, w := binary.Uvarint(buf[off:limit])
	if w <= 0 || n > uint64(limit-off-w) {
		return 0, false
	}
	return off + w + int(n), true
}
