package trace

import (
	"testing"

	"karousos.dev/karousos/internal/value"
)

func collect(events ...Event) *Trace {
	return &Trace{Events: events}
}

// TestTraceAccessors: RIDs follows request arrival, and Inputs and Outputs
// key each payload by rid.
func TestTraceAccessors(t *testing.T) {
	tr := collect(
		Event{Req, "r1", value.Map("op", "get")},
		Event{Req, "r2", value.Map("op", "set")},
		Event{Resp, "r2", value.Map("status", "ok")},
		Event{Resp, "r1", "hello"},
	)
	if err := tr.CheckBalanced(); err != nil {
		t.Fatalf("balanced: %v", err)
	}
	if got := tr.RIDs(); len(got) != 2 || got[0] != "r1" || got[1] != "r2" {
		t.Errorf("RIDs = %v", got)
	}
	if !value.Equal(tr.Inputs()["r1"], value.Map("op", "get")) {
		t.Error("input r1 wrong")
	}
	if !value.Equal(tr.Outputs()["r1"], "hello") {
		t.Error("output r1 wrong")
	}
}

func TestCheckBalancedRejects(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
	}{
		{"dup-req", collect(
			Event{Req, "r1", nil}, Event{Req, "r1", nil}, Event{Resp, "r1", nil})},
		{"dup-resp", collect(
			Event{Req, "r1", nil}, Event{Resp, "r1", nil}, Event{Resp, "r1", nil})},
		{"missing-resp", collect(
			Event{Req, "r1", nil}, Event{Req, "r2", nil}, Event{Resp, "r1", nil})},
		{"resp-without-req", collect(
			Event{Resp, "r1", nil}, Event{Req, "r2", nil}, Event{Resp, "r2", nil})},
		{"resp-before-req", collect(
			Event{Resp, "r1", nil}, Event{Req, "r1", nil})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.tr.CheckBalanced(); err == nil {
				t.Errorf("CheckBalanced accepted malformed trace %s", c.name)
			}
		})
	}
}

func TestCheckBalancedAcceptsInterleaved(t *testing.T) {
	tr := collect(
		Event{Req, "r1", nil},
		Event{Req, "r2", nil},
		Event{Resp, "r2", nil},
		Event{Req, "r3", nil},
		Event{Resp, "r1", nil},
		Event{Resp, "r3", nil},
	)
	if err := tr.CheckBalanced(); err != nil {
		t.Errorf("interleaved balanced trace rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Req.String() != "REQ" || Resp.String() != "RESP" {
		t.Error("Kind.String wrong")
	}
}

func TestEmptyTraceBalanced(t *testing.T) {
	if err := (&Trace{}).CheckBalanced(); err != nil {
		t.Errorf("empty trace should be balanced: %v", err)
	}
}
