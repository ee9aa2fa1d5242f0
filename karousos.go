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
//   - The Karousos server runtime: serves requests (Server.Run returns the
//     trace it recorded; a deployment records it in a trusted collector
//     outside the server) and collects advice (handler logs, R-concurrency-
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
	"karousos.dev/karousos/internal/advice"
	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/kvstore"
	"karousos.dev/karousos/internal/mv"
	"karousos.dev/karousos/internal/server"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
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
)

// TraceResp marks a response event of the trace; AccessWrite marks a write
// in a variable log. Tools that forge traces and advice inspect both.
const (
	TraceResp   = trace.Resp
	AccessWrite = advice.AccessWrite
)

// Collection modes for Serve.
const (
	CollectNone     = harness.CollectNone
	CollectKarousos = harness.CollectKarousos
	CollectBoth     = harness.CollectBoth
)

// Serializable is the isolation level an application's store provides to
// the audit; StoreSerializable is the matching store setting for NewStore.
const (
	Serializable      = adya.Serializable
	StoreSerializable = kvstore.Serializable
)

// MOTDApp returns the message-of-the-day model application (§6).
func MOTDApp() AppSpec { return harness.MOTDApp() }

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

// VerifyKarousosUnbatched audits with batching disabled (every request in a
// singleton group) — the ablation that isolates what grouped re-execution
// buys; see harness.VerifyKarousosUnbatched.
func VerifyKarousosUnbatched(spec AppSpec, tr *Trace, adv *Advice) *VerifyResult {
	return harness.VerifyKarousosUnbatched(spec, tr, adv)
}

// VerifySequential replays the trace one request at a time with no advice.
func VerifySequential(spec AppSpec, tr *Trace) *SequentialResult {
	return harness.VerifySequential(spec, tr)
}

// UnmarshalAdvice decodes advice from its binary wire format (the output of
// Advice.MarshalBinary), validating structure but — by design — not
// semantics: advice is untrusted and the audit judges it.
func UnmarshalAdvice(data []byte) (*Advice, error) { return advice.UnmarshalBinary(data) }

// NewStore returns a transactional KV store at the given isolation level for
// use with custom applications.
func NewStore(level kvstore.Isolation) *Store { return kvstore.New(level) }

// NewServer builds a server runtime for a custom application; see
// ServerConfig for the knobs.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// MergeRuns combines two serving runs into one alleged run, as a
// split-brain server would; see harness.MergeRuns.
func MergeRuns(a, b *ServeResult) *ServeResult { return harness.MergeRuns(a, b) }

// Workload mixes (§6 "Workloads").
var (
	// ReadHeavy is 90% reads / 10% writes.
	ReadHeavy = workload.ReadHeavy
	// Mixed is 50/50.
	Mixed = workload.Mixed
)

// MOTDWorkload generates n MOTD requests with the given mix.
func MOTDWorkload(n int, mix workload.Mix, seed int64) []Request {
	return workload.MOTD(n, mix, seed)
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
	// CloneValue deep-copies a value.
	CloneValue = value.Clone
	// FormatValue renders a value compactly for logs and errors.
	FormatValue = value.String
)

// Field returns m[k] when v is a map value, else nil.
func Field(v V, k string) V { return appkit.Field(v, k) }

// Str coerces a value to string ("" if not a string).
func Str(v V) string { return appkit.Str(v) }
