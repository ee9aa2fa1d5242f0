package advice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// This file implements the compact binary wire format for advice. Advice is
// measured (Figure 8) and shipped from server to verifier on every audit, and
// the verifier's turnaround time includes decoding it, so the codec matters
// to the evaluation. It is the only serialization of advice: the one that is
// fuzzed, clamped, shipped, and (through Clone) used by the attack tests.
//
// The format is deliberately simple — tag bytes, unsigned varints, explicit
// lengths — and the decoder treats its input as untrusted: every length is
// bounds-checked and any malformation yields an error rather than a panic.
//
// KADV3 adds one thing to KADV2: inside a variable-log entry's value, a list
// or map that repeats one written earlier in the same variable log is a
// back-reference of a few bytes (value.RefWriter), so motd's state, logged
// whole at every write with its 250-entry history, costs one new entry per
// write rather than the history again. A back-reference anywhere else — a
// transaction's contents, a non-determinism record, any KADV2 blob — is
// malformed.
//
// What MarshalBinary ships is a KADV4 frame around a KADV3 body (frame.go):
// the body deflated, which takes the repeated identifiers and keys the body
// still spells out once per entry down to a tenth of its size. A bare KADV3
// or KADV2 body still decodes, so sealed evidence stays auditable.

const (
	bodyMagic   = "KADV3\x00"
	bodyMagicV2 = "KADV2\x00"
)

// MaxExpandedBytes bounds an advice blob's expanded size: its length with
// every back-reference replaced by the bytes it stands for. A blob that
// back-references past it is malformed, so a hostile doubling chain is
// refused after reading no more than its own bytes.
// verifier.DefaultLimits().MaxAdviceBytes is this bound.
const MaxExpandedBytes = 1 << 28

type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *encoder) intv(x int)       { e.uvarint(uint64(x)) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) boolb(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Values use the canonical binary encoding in internal/value — the same
// bytes the epoch log's trace segments carry, so one codec (and one set of
// hostile-input clamps) serves both channels.
func (e *encoder) value(v value.V) {
	e.buf = value.AppendBinary(e.buf, v)
}

func (e *encoder) op(o core.Op) {
	e.str(string(o.RID))
	e.str(string(o.HID))
	e.intv(o.Num)
}

func (e *encoder) txPos(p TxPos) {
	e.str(string(p.RID))
	e.str(string(p.TID))
	e.intv(p.Index)
}

// appendBody appends the advice's KADV3 body to dst, the one layout of the
// format: map-valued sections are emitted in sorted key order, so equal
// advice encodes to equal bytes. Each variable log's back-reference table
// (value.RefWriter) lives for the encoding of that log.
func (a *Advice) appendBody(dst []byte) []byte {
	e := &encoder{buf: append(dst, bodyMagic...)}
	e.str(string(a.Mode))

	rids := sortedKeys(a.Tags)
	e.uvarint(uint64(len(rids)))
	for _, rid := range rids {
		e.str(string(rid))
		e.str(a.Tags[rid])
	}

	crids := sortedKeys(a.OpCounts)
	e.uvarint(uint64(len(crids)))
	for _, rid := range crids {
		counts := a.OpCounts[rid]
		hids := sortedKeys(counts)
		e.str(string(rid))
		e.uvarint(uint64(len(hids)))
		for _, hid := range hids {
			e.str(string(hid))
			e.intv(counts[hid])
		}
	}

	rrids := sortedKeys(a.ResponseEmittedBy)
	e.uvarint(uint64(len(rrids)))
	for _, rid := range rrids {
		at := a.ResponseEmittedBy[rid]
		e.str(string(rid))
		e.str(string(at.HID))
		e.intv(at.OpNum)
	}

	hrids := sortedKeys(a.HandlerLogs)
	e.uvarint(uint64(len(hrids)))
	for _, rid := range hrids {
		log := a.HandlerLogs[rid]
		e.str(string(rid))
		e.uvarint(uint64(len(log)))
		for i := range log {
			e.handlerOp(&log[i])
		}
	}

	vids := sortedKeys(a.VarLogs)
	e.uvarint(uint64(len(vids)))
	for _, id := range vids {
		entries := a.VarLogs[id]
		e.str(string(id))
		e.uvarint(uint64(len(entries)))
		var w value.RefWriter
		for i := range entries {
			e.varEntry(&entries[i], &w)
		}
	}

	e.uvarint(uint64(len(a.TxLogs)))
	for _, tl := range a.TxLogs {
		e.str(string(tl.RID))
		e.str(string(tl.TID))
		e.uvarint(uint64(len(tl.Ops)))
		for j := range tl.Ops {
			e.txOp(&tl.Ops[j])
		}
	}

	e.uvarint(uint64(len(a.WriteOrder)))
	for _, p := range a.WriteOrder {
		e.txPos(p)
	}

	e.uvarint(uint64(len(a.TxOrder)))
	for _, ev := range a.TxOrder {
		e.buf = append(e.buf, ev.Kind)
		e.str(string(ev.RID))
		e.str(string(ev.TID))
	}

	e.uvarint(uint64(len(a.Nondet)))
	for i := range a.Nondet {
		e.nondet(&a.Nondet[i])
	}
	return e.buf
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// errTruncated is returned whenever the decoder runs out of input.
var errTruncated = errors.New("advice: truncated input")

// decoder reads one advice blob. Every string it makes — identifiers and the
// strings inside logged values alike — goes through one Interner, so a
// request ID, handler ID or map key that recurs across the blob is copied
// once per decode rather than once per occurrence. A history entry motd
// re-logs at every write is a back-reference after its first, and decoded
// once.
type decoder struct {
	buf []byte
	off int
	in  value.Interner
	// refs reports a KADV3 blob, whose variable logs may back-reference.
	refs bool
	// extra is how many bytes the back-references resolved so far expand
	// the blob by.
	extra int
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return x, nil
}

// length reads a collection length and sanity-bounds it against the
// remaining input so hostile advice cannot force huge allocations.
func (d *decoder) length() (int, error) {
	return d.lengthElems(1)
}

// lengthElems reads a collection length whose elements each encode to at
// least minElemSize bytes, and clamps the attacker-declared count against
// the remaining input divided by that size. Without the divisor a
// length-inflated blob can force allocations ~sizeof(element) times larger
// than the input itself (a few declared bytes preallocating hundreds of
// megabytes of decoded structs); with it, decode-side memory stays
// proportional to input size.
func (d *decoder) lengthElems(minElemSize int) (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(d.buf)-d.off)/uint64(minElemSize) {
		return 0, fmt.Errorf("advice: declared length %d exceeds remaining input", x)
	}
	return int(x), nil
}

// Minimum wire sizes of variable-count elements, used to clamp declared
// lengths: an empty string is 1 byte (its length varint), an op is three
// such fields, and so on. These are lower bounds on what the corresponding
// decode method consumes — update them together with the format.
const (
	minStrSize       = 1
	minOpSize        = 3 * minStrSize // rid + hid + num
	minTxPosSize     = 3 * minStrSize // rid + tid + index
	minHandlerOpSize = 6              // hid + opnum + kind + event + events-len + fn
	minVarEntrySize  = minOpSize + 3  // op + type + value-tag + hasPrec
	minTxLogSize     = 3              // rid + tid + ops-len
	minTxOpSize      = 7              // hid + opnum + type + key + contents + readFrom + readSet-len
	minScanReadSize  = minStrSize + minTxPosSize
	minTxOrderSize   = 3 // kind + rid + tid
	minNondetSize    = minOpSize + 1
)

func (d *decoder) intv() (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > math.MaxInt32 {
		return 0, fmt.Errorf("advice: integer %d out of range", x)
	}
	return int(x), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.length()
	if err != nil {
		return "", err
	}
	s := d.in.String(d.buf[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *decoder) bytev() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, errTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) boolv() (bool, error) {
	b, err := d.bytev()
	return b != 0, err
}

func (d *decoder) value() (value.V, error) {
	v, n, err := d.in.DecodeBinary(d.buf[d.off:])
	if err != nil {
		return nil, err
	}
	d.off += n
	return v, nil
}

// logValue is value for a variable-log entry's value, whose back-references
// resolve against refs, its log's table (nil in a KADV2 blob). The blob's
// expanded size stays within MaxExpandedBytes.
func (d *decoder) logValue(refs *value.RefReader) (value.V, error) {
	v, n, extra, err := d.in.DecodeRefs(d.buf[d.off:], refs, MaxExpandedBytes-len(d.buf)-d.extra)
	if err != nil {
		return nil, err
	}
	d.off += n
	d.extra += extra
	return v, nil
}

func (d *decoder) op() (core.Op, error) {
	rid, err := d.str()
	if err != nil {
		return core.Op{}, err
	}
	hid, err := d.str()
	if err != nil {
		return core.Op{}, err
	}
	num, err := d.intv()
	if err != nil {
		return core.Op{}, err
	}
	return core.Op{RID: core.RID(rid), HID: core.HID(hid), Num: num}, nil
}

func (d *decoder) txPos() (TxPos, error) {
	rid, err := d.str()
	if err != nil {
		return TxPos{}, err
	}
	tid, err := d.str()
	if err != nil {
		return TxPos{}, err
	}
	idx, err := d.intv()
	if err != nil {
		return TxPos{}, err
	}
	return TxPos{RID: core.RID(rid), TID: core.TxID(tid), Index: idx}, nil
}

// UnmarshalBinary decodes advice from the compact wire format — a KADV4
// frame, or a bare KADV3 or KADV2 body — validating structure (not
// semantics — that is the audit's job).
func UnmarshalBinary(data []byte) (*Advice, error) {
	a, _, err := unmarshal(data)
	return a, err
}

// ExpandedSize decodes an advice blob and returns its expanded size: the
// length of its body with every back-reference replaced by the bytes it
// stands for, which is what the advice would take without back-references
// or compression (Figure 8's raw size).
func ExpandedSize(data []byte) (int, error) {
	_, n, err := unmarshal(data)
	return n, err
}

func unmarshal(data []byte) (*Advice, int, error) {
	payload, size, framed, err := splitFrame(data)
	if err != nil {
		return nil, 0, err
	}
	if !framed {
		return decodeBody(data)
	}
	z := inflaters.get(newInflater)
	defer inflaters.put(z)
	body, err := z.inflate(payload, size)
	if err != nil {
		return nil, 0, err
	}
	if !bytes.HasPrefix(body, []byte(bodyMagic)) {
		return nil, 0, errors.New("advice: frame body is not a KADV3 body")
	}
	return decodeBody(body)
}

// decodeBody decodes one body and returns it with its expanded size. Every
// string and value the decoder makes is a copy, so the advice never aliases
// body, which may be an inflater's reused buffer.
func decodeBody(body []byte) (*Advice, int, error) {
	d := &decoder{buf: body}
	a, err := d.advice()
	if err != nil {
		return nil, 0, err
	}
	return a, len(body) + d.extra, nil
}

func (d *decoder) advice() (a *Advice, err error) {
	data := d.buf
	switch {
	case bytes.HasPrefix(data, []byte(bodyMagic)):
		d.refs = true
	case bytes.HasPrefix(data, []byte(bodyMagicV2)):
	default:
		return nil, errors.New("advice: bad magic")
	}
	d.off = len(bodyMagic)

	mode, err := d.str()
	if err != nil {
		return nil, err
	}
	a = New(Mode(mode))

	n, err := d.length()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		rid, err := d.str()
		if err != nil {
			return nil, err
		}
		tag, err := d.str()
		if err != nil {
			return nil, err
		}
		a.Tags[core.RID(rid)] = tag
	}

	if n, err = d.length(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		rid, err := d.str()
		if err != nil {
			return nil, err
		}
		m, err := d.lengthElems(minStrSize + 1)
		if err != nil {
			return nil, err
		}
		counts := make(map[core.HID]int, m)
		for j := 0; j < m; j++ {
			hid, err := d.str()
			if err != nil {
				return nil, err
			}
			c, err := d.intv()
			if err != nil {
				return nil, err
			}
			counts[core.HID(hid)] = c
		}
		a.OpCounts[core.RID(rid)] = counts
	}

	if n, err = d.length(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		rid, err := d.str()
		if err != nil {
			return nil, err
		}
		hid, err := d.str()
		if err != nil {
			return nil, err
		}
		opnum, err := d.intv()
		if err != nil {
			return nil, err
		}
		a.ResponseEmittedBy[core.RID(rid)] = OpAt{HID: core.HID(hid), OpNum: opnum}
	}

	if n, err = d.length(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		rid, err := d.str()
		if err != nil {
			return nil, err
		}
		m, err := d.lengthElems(minHandlerOpSize)
		if err != nil {
			return nil, err
		}
		log := make([]HandlerOp, m)
		for j := range log {
			if log[j], err = d.handlerOp(); err != nil {
				return nil, err
			}
		}
		a.HandlerLogs[core.RID(rid)] = log
	}

	if n, err = d.length(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id, err := d.str()
		if err != nil {
			return nil, err
		}
		m, err := d.lengthElems(minVarEntrySize)
		if err != nil {
			return nil, err
		}
		var refs *value.RefReader
		if d.refs {
			refs = new(value.RefReader)
		}
		entries := make([]VarLogEntry, m)
		for j := range entries {
			if entries[j], err = d.varEntry(refs); err != nil {
				return nil, err
			}
		}
		a.VarLogs[core.VarID(id)] = entries
	}

	if n, err = d.lengthElems(minTxLogSize); err != nil {
		return nil, err
	}
	a.TxLogs = make([]TxLog, n)
	for i := range a.TxLogs {
		if a.TxLogs[i], err = d.txLog(); err != nil {
			return nil, err
		}
	}

	if n, err = d.lengthElems(minTxPosSize); err != nil {
		return nil, err
	}
	a.WriteOrder = make([]TxPos, n)
	for i := range a.WriteOrder {
		if a.WriteOrder[i], err = d.txPos(); err != nil {
			return nil, err
		}
	}

	if n, err = d.lengthElems(minTxOrderSize); err != nil {
		return nil, err
	}
	if n > 0 {
		a.TxOrder = make([]TxOrderEvent, n)
		for i := range a.TxOrder {
			if a.TxOrder[i].Kind, err = d.bytev(); err != nil {
				return nil, err
			}
			rid, err := d.str()
			if err != nil {
				return nil, err
			}
			tid, err := d.str()
			if err != nil {
				return nil, err
			}
			a.TxOrder[i].RID, a.TxOrder[i].TID = core.RID(rid), core.TxID(tid)
		}
	}

	if n, err = d.lengthElems(minNondetSize); err != nil {
		return nil, err
	}
	a.Nondet = make([]NondetEntry, n)
	for i := range a.Nondet {
		if a.Nondet[i].Op, err = d.op(); err != nil {
			return nil, err
		}
		if a.Nondet[i].Value, err = d.value(); err != nil {
			return nil, err
		}
	}

	if d.off != len(d.buf) {
		return nil, fmt.Errorf("advice: %d trailing bytes", len(d.buf)-d.off)
	}
	return a, nil
}

func (d *decoder) handlerOp() (HandlerOp, error) {
	var op HandlerOp
	hid, err := d.str()
	if err != nil {
		return op, err
	}
	op.HID = core.HID(hid)
	if op.OpNum, err = d.intv(); err != nil {
		return op, err
	}
	kind, err := d.bytev()
	if err != nil {
		return op, err
	}
	op.Kind = HandlerOpKind(kind)
	ev, err := d.str()
	if err != nil {
		return op, err
	}
	op.Event = core.EventName(ev)
	m, err := d.length()
	if err != nil {
		return op, err
	}
	if m > 0 {
		op.Events = make([]core.EventName, m)
		for i := range op.Events {
			s, err := d.str()
			if err != nil {
				return op, err
			}
			op.Events[i] = core.EventName(s)
		}
	}
	fn, err := d.str()
	if err != nil {
		return op, err
	}
	op.Fn = core.FunctionID(fn)
	return op, nil
}

func (d *decoder) varEntry(refs *value.RefReader) (VarLogEntry, error) {
	var en VarLogEntry
	var err error
	if en.Op, err = d.op(); err != nil {
		return en, err
	}
	typ, err := d.bytev()
	if err != nil {
		return en, err
	}
	en.Type = AccessType(typ)
	if en.Value, err = d.logValue(refs); err != nil {
		return en, err
	}
	if en.HasPrec, err = d.boolv(); err != nil {
		return en, err
	}
	if en.HasPrec {
		if en.Prec, err = d.op(); err != nil {
			return en, err
		}
	}
	return en, nil
}

func (d *decoder) txLog() (TxLog, error) {
	var tl TxLog
	rid, err := d.str()
	if err != nil {
		return tl, err
	}
	tid, err := d.str()
	if err != nil {
		return tl, err
	}
	tl.RID, tl.TID = core.RID(rid), core.TxID(tid)
	n, err := d.lengthElems(minTxOpSize)
	if err != nil {
		return tl, err
	}
	tl.Ops = make([]TxOp, n)
	for i := range tl.Ops {
		var op TxOp
		hid, err := d.str()
		if err != nil {
			return tl, err
		}
		op.HID = core.HID(hid)
		if op.OpNum, err = d.intv(); err != nil {
			return tl, err
		}
		typ, err := d.bytev()
		if err != nil {
			return tl, err
		}
		op.Type = core.TxOpType(typ)
		if op.Key, err = d.str(); err != nil {
			return tl, err
		}
		if op.Contents, err = d.value(); err != nil {
			return tl, err
		}
		has, err := d.boolv()
		if err != nil {
			return tl, err
		}
		if has {
			p, err := d.txPos()
			if err != nil {
				return tl, err
			}
			op.ReadFrom = &p
		}
		nrs, err := d.lengthElems(minScanReadSize)
		if err != nil {
			return tl, err
		}
		if nrs > 0 {
			op.ReadSet = make([]ScanRead, nrs)
			for j := range op.ReadSet {
				if op.ReadSet[j].Key, err = d.str(); err != nil {
					return tl, err
				}
				if op.ReadSet[j].ReadFrom, err = d.txPos(); err != nil {
					return tl, err
				}
			}
		}
		tl.Ops[i] = op
	}
	return tl, nil
}

// varEntry encodes en against w, the back-reference table of its log.
func (e *encoder) varEntry(en *VarLogEntry, w *value.RefWriter) {
	e.op(en.Op)
	e.buf = append(e.buf, byte(en.Type))
	e.buf = w.AppendBinary(e.buf, en.Value)
	e.boolb(en.HasPrec)
	if en.HasPrec {
		e.op(en.Prec)
	}
}

func (e *encoder) handlerOp(op *HandlerOp) {
	e.str(string(op.HID))
	e.intv(op.OpNum)
	e.buf = append(e.buf, byte(op.Kind))
	e.str(string(op.Event))
	e.uvarint(uint64(len(op.Events)))
	for _, ev := range op.Events {
		e.str(string(ev))
	}
	e.str(string(op.Fn))
}

func (e *encoder) txOp(op *TxOp) {
	e.str(string(op.HID))
	e.intv(op.OpNum)
	e.buf = append(e.buf, byte(op.Type))
	e.str(op.Key)
	e.value(op.Contents)
	e.boolb(op.ReadFrom != nil)
	if op.ReadFrom != nil {
		e.txPos(*op.ReadFrom)
	}
	e.uvarint(uint64(len(op.ReadSet)))
	for _, sr := range op.ReadSet {
		e.str(sr.Key)
		e.txPos(sr.ReadFrom)
	}
}

func (e *encoder) nondet(n *NondetEntry) {
	e.op(n.Op)
	e.value(n.Value)
}
