// Package karousos is a from-scratch Go implementation of Karousos, the
// efficient auditing system for event-driven web applications of Tzialla,
// Wang, Zhu, Panda, and Walfish (EuroSys 2024).
//
// # The problem
//
// A principal deploys an event-driven web application on an untrusted server
// and wants assurance of execution integrity: that the responses observed in
// a trusted request/response trace could only have been produced by actually
// executing the program on the traced requests. The server additionally
// emits untrusted advice; a verifier — much weaker than the server —
// re-executes the trace in batches and either ACCEPTs (the execution is
// explainable by some legal schedule of the program, Soundness) or REJECTs.
// If the server was honest, the audit always accepts (Completeness).
//
// # What this module provides
//
//   - A KEM runtime (the paper's execution model, §3): applications are sets
//     of event handlers written against Context, with loggable variables,
//     a transactional key-value store, emit/register/unregister, branches,
//     and recorded non-determinism.
//   - The Karousos server runtime: serves requests, records the trace via a
//     trusted collector, and streams advice (handler logs, R-concurrency-
//     filtered variable logs, transaction logs, write order, tags).
//   - The Karousos verifier: the three-phase audit of the paper's Figure 14
//     (Preprocess / grouped multivalue ReExec / Postprocess with the
//     acyclicity check), plus Adya-style isolation verification of the
//     alleged transaction history.
//   - Baselines: an Orochi-JS server/verifier pair and a sequential
//     re-executor, as in the paper's evaluation.
//   - The three evaluated applications (MOTD, stack-dump logging, wiki),
//     workload generators, and an experiment harness that regenerates every
//     figure of the paper's evaluation.
//
// # Quick start
//
//	spec := karousos.WikiApp()
//	reqs := karousos.WikiWorkload(600, 1)
//	run, err := karousos.Serve(spec, reqs, 30, 42, karousos.CollectKarousos)
//	// ship run.Trace (trusted) and run.Karousos (untrusted) to the verifier
//	verdict := karousos.VerifyKarousos(spec, run.Trace, run.Karousos)
//	if verdict.Err != nil { /* the server misbehaved */ }
//
// See examples/ for runnable programs, DESIGN.md for the architecture, and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
package karousos

import (
	"context"
	"io"

	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/faultinject"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
	"karousos.dev/karousos/internal/verifier"
	"karousos.dev/karousos/internal/verifier/memo"
	"karousos.dev/karousos/internal/workload"
)

// Application model (the KEM of §3). Applications define handler functions,
// register them in Init, and perform all stateful operations through the
// Context.
type (
	// App is a KEM program; see core.App.
	App = core.App
	// Context binds handler code to an activation (or group of them).
	Context = core.Context
	// HandlerFunc is the code of one event handler.
	HandlerFunc = core.HandlerFunc
	// Variable is a loggable program variable handle.
	Variable = core.Variable
	// Tx is an open transaction handle.
	Tx = core.Tx
	// MV is a multivalue (SIMD-on-demand batched value).
	MV = mv.MV
	// V is the dynamic value domain (JSON-like).
	V = value.V

	// RID identifies a request; FunctionID names handler code; EventName
	// names an event type.
	RID        = core.RID
	FunctionID = core.FunctionID
	EventName  = core.EventName
)

// Serving and auditing.
type (
	// Request is one incoming request.
	Request = server.Request
	// Trace is the trusted ground-truth request/response trace.
	Trace = trace.Trace
	// Advice is the untrusted advice a server ships to the verifier.
	Advice = advice.Advice
	// AppSpec describes an auditable application (factory + isolation).
	AppSpec = harness.AppSpec
	// ServeResult is a serving run's trace, advice, and timings.
	ServeResult = harness.ServeResult
	// VerifyResult is one audit's verdict, cost, and statistics.
	VerifyResult = harness.VerifyResult
	// SequentialResult is the sequential-replay baseline's outcome.
	SequentialResult = harness.SequentialResult
	// Store is the transactional KV substrate.
	Store = kvstore.Store
	// TraceEvent is one REQ/RESP entry of the trace.
	TraceEvent = trace.Event
	// Server is the online runtime for custom applications.
	Server = server.Server
	// ServerConfig configures a Server.
	ServerConfig = server.Config
	// ServerResult is a Server run's raw output.
	ServerResult = server.Result
)

// Trace event kinds and variable-log access types, for tests and tools that
// inspect traces and advice.
const (
	TraceReq    = trace.Req
	TraceResp   = trace.Resp
	AccessRead  = advice.AccessRead
	AccessWrite = advice.AccessWrite
)

// Collection modes for Serve.
const (
	CollectNone     = harness.CollectNone
	CollectKarousos = harness.CollectKarousos
	CollectOrochi   = harness.CollectOrochi
	CollectBoth     = harness.CollectBoth
)

// Isolation levels for application stores.
const (
	Serializable      = adya.Serializable
	ReadCommitted     = adya.ReadCommitted
	ReadUncommitted   = adya.ReadUncommitted
	SnapshotIsolation = adya.SnapshotIsolation
)

// MOTDApp returns the message-of-the-day model application (§6).
func MOTDApp() AppSpec { return harness.MOTDApp() }

// StacksApp returns the stack-dump logging model application (§6).
func StacksApp() AppSpec { return harness.StacksApp() }

// WikiApp returns the wiki application (§6).
func WikiApp() AppSpec { return harness.WikiApp() }

// Serve runs reqs through the server runtime at the given admission
// concurrency and advice-collection mode, returning the trusted trace and
// the collected advice.
func Serve(spec AppSpec, reqs []Request, concurrency int, seed int64, mode harness.Collect) (*ServeResult, error) {
	return harness.Serve(spec, reqs, concurrency, seed, mode)
}

// VerifyKarousos audits (trace, advice) with the Karousos verifier; a nil
// Err in the result means the audit accepted.
func VerifyKarousos(spec AppSpec, tr *Trace, adv *Advice) *VerifyResult {
	return harness.VerifyKarousos(spec, tr, adv)
}

// VerifyOrochi audits with the Orochi-JS baseline verifier.
func VerifyOrochi(spec AppSpec, tr *Trace, adv *Advice) *VerifyResult {
	return harness.VerifyOrochi(spec, tr, adv)
}

// VerifyOptions selects the audit configuration beyond the app spec; see
// harness.VerifyOptions. The zero value is the Karousos verifier, unbounded,
// at GOMAXPROCS workers.
type VerifyOptions = harness.VerifyOptions

// VerifyWith audits with explicit options — notably Workers, the audit's
// parallelism. The verdict, reject code, and Stats are identical at every
// worker count; only wall-clock time changes.
func VerifyWith(spec AppSpec, tr *Trace, adv *Advice, opt VerifyOptions) *VerifyResult {
	return harness.VerifyWith(spec, tr, adv, opt)
}

// VerifySequential replays the trace one request at a time with no advice.
func VerifySequential(spec AppSpec, tr *Trace) *SequentialResult {
	return harness.VerifySequential(spec, tr)
}

// Audit runs the Karousos audit directly against a custom application (one
// not wrapped in an AppSpec). app must be a fresh instance; isolation is the
// level the application's store is expected to provide.
func Audit(app *App, isolation adya.Level, tr *Trace, adv *Advice) error {
	_, err := verifier.Audit(verifier.Config{
		App: app, Mode: advice.ModeKarousos, Isolation: isolation,
	}, tr, adv)
	return err
}

// NewStore returns a transactional KV store at the given isolation level for
// use with custom applications.
func NewStore(level kvstore.Isolation) *Store { return kvstore.New(level) }

// Store isolation levels.
const (
	StoreSerializable      = kvstore.Serializable
	StoreReadCommitted     = kvstore.ReadCommitted
	StoreReadUncommitted   = kvstore.ReadUncommitted
	StoreSnapshotIsolation = kvstore.SnapshotIsolation
)

// NewServer builds a server runtime for a custom application; see
// ServerConfig for the knobs.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// MergeRuns combines two serving runs into one alleged run, as a
// split-brain server would; see harness.MergeRuns.
func MergeRuns(a, b *ServeResult) *ServeResult { return harness.MergeRuns(a, b) }

// Workload generators (§6 "Workloads").
var (
	// ReadHeavy is 90% reads / 10% writes.
	ReadHeavy = workload.ReadHeavy
	// WriteHeavy is 90% writes / 10% reads.
	WriteHeavy = workload.WriteHeavy
	// Mixed is 50/50.
	Mixed = workload.Mixed
)

// MOTDWorkload generates n MOTD requests with the given mix.
func MOTDWorkload(n int, mix workload.Mix, seed int64) []Request {
	return workload.MOTD(n, mix, seed)
}

// StacksWorkload generates n stack-dump requests with the given mix (10% of
// reports are new dumps, as in the paper).
func StacksWorkload(n int, mix workload.Mix, seed int64) []Request {
	return workload.Stacks(n, mix, seed, workload.DefaultStacksOptions())
}

// WikiWorkload generates n wiki requests with the paper's 25/15/60 mix.
func WikiWorkload(n int, seed int64) []Request {
	return workload.Wiki(n, seed)
}

// Value helpers for application authors (the dynamic domain is JSON-like:
// nil, bool, float64, string, []V, map[string]V).
var (
	// Map builds a map value from alternating key/value arguments.
	Map = value.Map
	// List builds a list value.
	List = value.List
	// Equal is deep equality on values.
	Equal = value.Equal
	// CloneValue deep-copies a value.
	CloneValue = value.Clone
	// FormatValue renders a value compactly for logs and errors.
	FormatValue = value.String
)

// Field returns m[k] when v is a map value, else nil.
func Field(v V, k string) V { return appkit.Field(v, k) }

// Str coerces a value to string ("" if not a string).
func Str(v V) string { return appkit.Str(v) }

// Num coerces a value to float64 (0 if not a number).
func Num(v V) float64 { return appkit.Num(v) }

// Bool coerces a value to bool (false if not a bool).
func Bool(v V) bool { return appkit.Bool(v) }

// With returns a copy of map value v with key k set to val.
func With(v V, k string, val V) map[string]V { return appkit.With(v, k, val) }

// UnmarshalAdvice decodes advice from its binary wire format (the output of
// Advice.MarshalBinary), validating structure but — by design — not
// semantics: advice is untrusted and the audit judges it.
func UnmarshalAdvice(data []byte) (*Advice, error) { return advice.UnmarshalBinary(data) }

// VerifyKarousosUnbatched audits with batching disabled (every request in a
// singleton group) — the ablation that isolates what grouped re-execution
// buys; see harness.VerifyKarousosUnbatched.
func VerifyKarousosUnbatched(spec AppSpec, tr *Trace, adv *Advice) *VerifyResult {
	return harness.VerifyKarousosUnbatched(spec, tr, adv)
}

// VerifyKarousosWithGraph audits like VerifyKarousos and additionally writes
// the execution graph G in Graphviz DOT format to w — with the offending
// cycle highlighted when the audit rejects on acyclicity.
func VerifyKarousosWithGraph(spec AppSpec, tr *Trace, adv *Advice, w io.Writer) *VerifyResult {
	return harness.VerifyWith(spec, tr, adv, VerifyOptions{DumpGraph: w})
}

// Rejection taxonomy: every audit rejection carries a machine-readable
// reason code; see core.RejectCode for the classification rules.
type RejectCode = core.RejectCode

// The rejection reason codes.
const (
	RejectMalformedAdvice    = core.RejectMalformedAdvice
	RejectLogMismatch        = core.RejectLogMismatch
	RejectGraphCycle         = core.RejectGraphCycle
	RejectIsolationViolation = core.RejectIsolationViolation
	RejectOutputMismatch     = core.RejectOutputMismatch
	RejectResourceLimit      = core.RejectResourceLimit
	RejectInternalFault      = core.RejectInternalFault
)

// RejectCodeOf extracts the reason code from an audit error; "" when the
// error is not an audit rejection.
func RejectCodeOf(err error) RejectCode { return core.RejectCodeOf(err) }

// Limits bounds the resources one audit may consume; the zero value is
// unbounded, DefaultLimits is production-shaped.
type Limits = verifier.Limits

// DefaultLimits returns the production-shaped resource bounds.
func DefaultLimits() Limits { return verifier.DefaultLimits() }

// VerifyKarousosLimits audits like VerifyKarousos under explicit resource
// bounds: the serialized advice size is checked before decoding, and the
// audit itself runs under lim's deadline and graph budgets, rejecting with
// RejectResourceLimit when exceeded.
func VerifyKarousosLimits(spec AppSpec, tr *Trace, adv *Advice, lim Limits) *VerifyResult {
	return harness.VerifyKarousosLimits(spec, tr, adv, lim)
}

// FaultOp is one operator of the fault-injection catalogue; see
// internal/faultinject.
type FaultOp = faultinject.Op

// FaultCatalogue returns every fault-injection operator.
func FaultCatalogue() []FaultOp { return faultinject.Catalogue() }

// ApplyFault corrupts wire-format advice per an "op:seed" spec (seed
// defaults to 0) from the fault-injection catalogue, deterministically.
func ApplyFault(spec string, wire []byte) ([]byte, error) {
	op, seed, err := faultinject.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return op.Apply(seed, wire)
}

// Continuous auditing (the epoch pipeline): a collector serves an
// application over HTTP, recording the trusted trace into a durable epoch
// log; an incremental auditor tails the log and audits each sealed epoch
// with the dictionary state carried from the previous one. See cmd/karousos
// and DESIGN.md §10.

// CarryState is the trusted cross-epoch dictionary state an accepting audit
// produces for the next epoch's audit.
type CarryState = verifier.CarryState

// AuditCarry audits one epoch like Audit but additionally takes the carry
// produced by the previous epoch's audit (nil for the first epoch) and
// returns the next epoch's carry.
func AuditCarry(ctx context.Context, cfg verifier.Config, tr *Trace, adv *Advice) (verifier.Stats, *CarryState, error) {
	return verifier.AuditCarry(ctx, cfg, tr, adv)
}

// MemoCache is the content-addressed re-execution memo cache the verifier
// consults when VerifyOptions.Memo (or auditd's MemoMaxBytes) is set; see
// DESIGN.md §18. One cache is threaded through consecutive epoch audits;
// entries are keyed by the full input closure of a tag group, so a hit
// replays the group's recorded effects instead of re-executing it.
type MemoCache = memo.Cache

// NewMemoCache returns a memo cache with the given byte budget
// (maxBytes <= 0 means unbounded).
func NewMemoCache(maxBytes int) *MemoCache { return memo.NewCache(maxBytes) }
