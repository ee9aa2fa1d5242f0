// Package advice defines the untrusted advice a Karousos server ships to the
// verifier (paper §4, Appendix C.1.3): control-flow tags, per-request handler
// logs, per-variable variable logs, per-transaction logs, the global write
// order, opcounts, responseEmittedBy, and recorded non-determinism.
//
// The structures here are a wire format — slices and string-keyed maps,
// serialized by the binary codec in codec.go — because advice size is itself
// an evaluated quantity (Figure 8). The verifier builds whatever lookup
// indexes it needs during Preprocess; nothing in this package is trusted.
package advice

import (
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// Mode records which algorithm produced the advice; it only gates sanity
// checks in the harness (a Karousos verifier fed Orochi advice is a usage
// bug, not an attack).
type Mode string

const (
	ModeKarousos Mode = "karousos"
	ModeOrochiJS Mode = "orochi-js"
)

// OpAt locates an operation within a known request: the OpNum-th operation
// of handler HID.
type OpAt struct {
	HID   core.HID
	OpNum int
}

// HandlerOpKind enumerates handler-log entries (C.1.3).
type HandlerOpKind uint8

const (
	OpRegister HandlerOpKind = iota
	OpEmit
	OpUnregister
)

func (k HandlerOpKind) String() string {
	switch k {
	case OpRegister:
		return "register"
	case OpEmit:
		return "emit"
	case OpUnregister:
		return "unregister"
	}
	return "handlerop?"
}

// HandlerOp is one entry of a request's handler log: a register, emit, or
// unregister issued by handler HID as its OpNum-th operation.
type HandlerOp struct {
	HID   core.HID
	OpNum int
	Kind  HandlerOpKind
	Event core.EventName // emit and unregister
	// Events is the set of event names for register operations.
	Events []core.EventName
	Fn     core.FunctionID // register and unregister
}

// AccessType distinguishes variable-log entries.
type AccessType uint8

const (
	AccessRead AccessType = iota
	AccessWrite
)

func (a AccessType) String() string {
	if a == AccessRead {
		return "read"
	}
	return "write"
}

// VarLogEntry is one entry of a variable log (Figure 13): READ entries
// reference the write they observe; WRITE entries carry the value written and
// reference the write they overwrite (absent for lazily-logged writes).
type VarLogEntry struct {
	Op      core.Op
	Type    AccessType
	Value   value.V // writes only
	HasPrec bool
	Prec    core.Op
}

// TxPos locates an operation inside the transaction logs: the Index-th
// (1-based) operation of transaction TID of request RID.
type TxPos struct {
	RID   core.RID  `json:"rid"`
	TID   core.TxID `json:"tid"`
	Index int       `json:"index"`
}

// ScanRead is one row of a range read's alleged result set: the key and the
// position of its dictating write.
type ScanRead struct {
	Key      string
	ReadFrom TxPos
}

// TxOp is one entry of a transaction log (C.1.3): the operation's issuing
// handler position, its type, the key (PUT/GET; the prefix for SCAN), the
// written contents (PUT), the position of the dictating write (GET; nil when
// the row was absent), and the alleged result set (SCAN).
type TxOp struct {
	HID      core.HID
	OpNum    int
	Type     core.TxOpType
	Key      string
	Contents value.V
	ReadFrom *TxPos
	ReadSet  []ScanRead
}

// TxLog is the ordered operation log of one transaction.
type TxLog struct {
	RID core.RID
	TID core.TxID
	Ops []TxOp
}

// TxOrderEvent is one entry of the alleged begin/commit order (snapshot
// isolation only): Kind 0 is begin, 1 is commit.
type TxOrderEvent struct {
	Kind uint8
	RID  core.RID
	TID  core.TxID
}

// NondetEntry records the result of one non-deterministic operation (§5).
type NondetEntry struct {
	Op    core.Op
	Value value.V
}

// Advice is everything the untrusted server reports for one audit period.
type Advice struct {
	Mode Mode

	// Tags maps each request to its control-flow group tag (§4.1):
	// requests with equal tags allegedly replay together.
	Tags map[core.RID]string

	// OpCounts maps each executed handler activation to the number of
	// operations it issued (C.1.3's opcounts).
	OpCounts map[core.RID]map[core.HID]int

	// ResponseEmittedBy names, per request, the handler that delivered the
	// response and how many operations it had issued beforehand.
	ResponseEmittedBy map[core.RID]OpAt

	// HandlerLogs holds each request's ordered handler-operation log (§4.1).
	HandlerLogs map[core.RID][]HandlerOp

	// VarLogs holds each loggable variable's log (§4.2, Figure 13).
	VarLogs map[core.VarID][]VarLogEntry

	// TxLogs holds the per-transaction operation logs (§4.4).
	TxLogs []TxLog

	// WriteOrder is the alleged global order of installed writes (§4.4),
	// derived from the store's binlog at an honest server.
	WriteOrder []TxPos

	// TxOrder is the alleged global begin/commit order, present only when
	// the store runs snapshot isolation (Adya's G-SI phenomena are defined
	// over it).
	TxOrder []TxOrderEvent

	// Nondet holds recorded non-deterministic results (§5).
	Nondet []NondetEntry
}

// New returns an empty advice in the given mode with all maps allocated.
func New(mode Mode) *Advice {
	return &Advice{
		Mode:              mode,
		Tags:              make(map[core.RID]string),
		OpCounts:          make(map[core.RID]map[core.HID]int),
		ResponseEmittedBy: make(map[core.RID]OpAt),
		HandlerLogs:       make(map[core.RID][]HandlerOp),
		VarLogs:           make(map[core.VarID][]VarLogEntry),
	}
}

// Size returns the size of the advice in the binary wire format — the bytes
// a server would ship to the verifier, which is what the Figure 8
// experiments report.
func (a *Advice) Size() int {
	return len(a.MarshalBinary())
}

// Clone deep-copies the advice through its binary body, uncompressed;
// attack tests mutate clones so one honest run can feed many adversarial
// audits.
func (a *Advice) Clone() *Advice {
	out, _, err := decodeBody(a.appendBody(nil))
	if err != nil {
		panic("advice: clone failed to decode its own encoding: " + err.Error())
	}
	return out
}
