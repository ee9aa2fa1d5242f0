// Package trace implements the ground-truth request/response trace (paper
// §2.1, Definition 1). The trusted collector that records it in a
// deployment is internal/collectorhttp, which appends each event to the
// epoch log outside the untrusted server; server.Run builds the same trace
// in memory for finite runs.
//
// The trace is the only trusted input to an audit: an ordered list of request
// events (REQ, rid, input) and response events (RESP, rid, output) in
// chronological order. Everything else the verifier consumes — the advice —
// is untrusted.
package trace

import (
	"fmt"

	"karousos.dev/karousos/internal/value"
)

// Kind distinguishes request and response events.
type Kind uint8

const (
	// Req marks the arrival of a request at the server.
	Req Kind = iota
	// Resp marks the delivery of a response from the server.
	Resp
)

func (k Kind) String() string {
	if k == Req {
		return "REQ"
	}
	return "RESP"
}

// Event is one entry of the trace: (REQ, rid, x) or (RESP, rid, y).
type Event struct {
	Kind Kind
	RID  string
	Data value.V
}

// Trace is the chronological list of events the collector observed.
type Trace struct {
	Events []Event
}

// CheckBalanced verifies the structural sanity the verifier's Preprocess
// requires (Figure 14 line 19): every request id appears exactly once as a
// REQ and exactly once as a RESP, and its REQ precedes its RESP.
func (t *Trace) CheckBalanced() error {
	reqAt := make(map[string]int, len(t.Events)/2)
	respAt := make(map[string]int, len(t.Events)/2)
	for i, e := range t.Events {
		switch e.Kind {
		case Req:
			if _, dup := reqAt[e.RID]; dup {
				return fmt.Errorf("trace: duplicate REQ for rid %q", e.RID)
			}
			reqAt[e.RID] = i
		case Resp:
			if _, dup := respAt[e.RID]; dup {
				return fmt.Errorf("trace: duplicate RESP for rid %q", e.RID)
			}
			respAt[e.RID] = i
		}
	}
	if len(reqAt) != len(respAt) {
		return fmt.Errorf("trace: %d requests but %d responses", len(reqAt), len(respAt))
	}
	for rid, ri := range reqAt {
		pi, ok := respAt[rid]
		if !ok {
			return fmt.Errorf("trace: request %q has no response", rid)
		}
		if pi < ri {
			return fmt.Errorf("trace: response for %q precedes its request", rid)
		}
	}
	return nil
}

// RIDs returns the request ids in order of request arrival.
func (t *Trace) RIDs() []string {
	var out []string
	for _, e := range t.Events {
		if e.Kind == Req {
			out = append(out, e.RID)
		}
	}
	return out
}

// Inputs returns a map from rid to request input.
func (t *Trace) Inputs() map[string]value.V {
	out := make(map[string]value.V)
	for _, e := range t.Events {
		if e.Kind == Req {
			out[e.RID] = e.Data
		}
	}
	return out
}

// Outputs returns a map from rid to the traced response.
func (t *Trace) Outputs() map[string]value.V {
	out := make(map[string]value.V)
	for _, e := range t.Events {
		if e.Kind == Resp {
			out[e.RID] = e.Data
		}
	}
	return out
}
