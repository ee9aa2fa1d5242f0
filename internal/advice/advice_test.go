package advice

import (
	"math/rand"
	"testing"
	"testing/quick"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// sampleAdvice builds an advice instance exercising every section.
func sampleAdvice() *Advice {
	a := New(ModeKarousos)
	a.Tags["r1"] = "tagA"
	a.Tags["r2"] = "tagA"
	a.OpCounts["r1"] = map[core.HID]int{"h1": 3, "h2": 0}
	a.OpCounts["r2"] = map[core.HID]int{"h1": 3}
	a.ResponseEmittedBy["r1"] = OpAt{HID: "h1", OpNum: 2}
	a.ResponseEmittedBy["r2"] = OpAt{HID: "h1", OpNum: 3}
	a.HandlerLogs["r1"] = []HandlerOp{
		{HID: "h1", OpNum: 1, Kind: OpRegister, Events: []core.EventName{"e1", "e2"}, Fn: "f"},
		{HID: "h1", OpNum: 2, Kind: OpEmit, Event: "e1"},
		{HID: "h1", OpNum: 3, Kind: OpUnregister, Event: "e2", Fn: "f"},
	}
	a.VarLogs["v"] = []VarLogEntry{
		{Op: core.Op{RID: "r1", HID: "h1", Num: 1}, Type: AccessWrite, Value: value.Map("n", 1)},
		{Op: core.Op{RID: "r2", HID: "h1", Num: 1}, Type: AccessRead, HasPrec: true,
			Prec: core.Op{RID: "r1", HID: "h1", Num: 1}},
	}
	a.TxLogs = []TxLog{{
		RID: "r1", TID: "t1",
		Ops: []TxOp{
			{HID: "h1", OpNum: 1, Type: core.TxStart},
			{HID: "h1", OpNum: 2, Type: core.TxPut, Key: "k", Contents: value.List(1, "x")},
			{HID: "h1", OpNum: 3, Type: core.TxGet, Key: "k",
				ReadFrom: &TxPos{RID: "r1", TID: "t1", Index: 2}},
			{HID: "h1", OpNum: 4, Type: core.TxCommit},
		},
	}}
	a.WriteOrder = []TxPos{{RID: "r1", TID: "t1", Index: 2}}
	a.Nondet = []NondetEntry{{Op: core.Op{RID: "r1", HID: "h1", Num: 9}, Value: 42.0}}
	return a
}

func adviceEqual(t *testing.T, a, b *Advice) {
	t.Helper()
	if a.Mode != b.Mode {
		t.Errorf("mode %q vs %q", a.Mode, b.Mode)
	}
	if len(a.Tags) != len(b.Tags) {
		t.Fatalf("tags %d vs %d", len(a.Tags), len(b.Tags))
	}
	for rid, tag := range a.Tags {
		if b.Tags[rid] != tag {
			t.Errorf("tag[%s] %q vs %q", rid, tag, b.Tags[rid])
		}
	}
	for rid, counts := range a.OpCounts {
		for hid, n := range counts {
			if b.OpCounts[rid][hid] != n {
				t.Errorf("opcounts[%s][%s] differ", rid, hid)
			}
		}
	}
	for rid, at := range a.ResponseEmittedBy {
		if b.ResponseEmittedBy[rid] != at {
			t.Errorf("responseEmittedBy[%s] differ", rid)
		}
	}
	for rid, log := range a.HandlerLogs {
		blog := b.HandlerLogs[rid]
		if len(blog) != len(log) {
			t.Fatalf("handler log length for %s", rid)
		}
		for i := range log {
			if log[i].HID != blog[i].HID || log[i].Kind != blog[i].Kind ||
				log[i].Event != blog[i].Event || log[i].Fn != blog[i].Fn ||
				len(log[i].Events) != len(blog[i].Events) {
				t.Errorf("handler log entry %s[%d] differs", rid, i)
			}
		}
	}
	for id, entries := range a.VarLogs {
		bent := b.VarLogs[id]
		if len(bent) != len(entries) {
			t.Fatalf("var log length for %s", id)
		}
		for i := range entries {
			if entries[i].Op != bent[i].Op || entries[i].Type != bent[i].Type ||
				entries[i].HasPrec != bent[i].HasPrec || entries[i].Prec != bent[i].Prec ||
				!value.Equal(entries[i].Value, bent[i].Value) {
				t.Errorf("var log entry %s[%d] differs", id, i)
			}
		}
	}
	if len(a.TxLogs) != len(b.TxLogs) {
		t.Fatalf("tx logs %d vs %d", len(a.TxLogs), len(b.TxLogs))
	}
	if len(a.WriteOrder) != len(b.WriteOrder) {
		t.Fatalf("write order length")
	}
	for i := range a.WriteOrder {
		if a.WriteOrder[i] != b.WriteOrder[i] {
			t.Errorf("write order[%d] differs", i)
		}
	}
	if len(a.Nondet) != len(b.Nondet) {
		t.Fatalf("nondet length")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	a := sampleAdvice()
	b, err := UnmarshalBinary(a.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	adviceEqual(t, a, b)
}

func TestBinaryDeterministic(t *testing.T) {
	a := sampleAdvice()
	if string(a.MarshalBinary()) != string(a.MarshalBinary()) {
		t.Error("binary encoding not deterministic")
	}
	// A round-tripped advice must re-encode identically.
	b, err := UnmarshalBinary(a.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if string(a.MarshalBinary()) != string(b.MarshalBinary()) {
		t.Error("round-tripped advice encodes differently")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := UnmarshalBinary([]byte("nonsense")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := UnmarshalBinary(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryTruncationsRejected(t *testing.T) {
	full := sampleAdvice().MarshalBinary()
	// Every strict prefix must fail to decode (never panic, never succeed).
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := UnmarshalBinary(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryTrailingBytesRejected(t *testing.T) {
	full := sampleAdvice().MarshalBinary()
	if _, err := UnmarshalBinary(append(append([]byte{}, full...), 0x00)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestBinaryCorruptionNeverPanics(t *testing.T) {
	full := sampleAdvice().MarshalBinary()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := append([]byte{}, full...)
		for j := 0; j < 1+r.Intn(4); j++ {
			data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		}
		// Either outcome is fine; a panic is not.
		_, _ = UnmarshalBinary(data)
	}
}

func TestSizeIsBinarySize(t *testing.T) {
	a := sampleAdvice()
	if a.Size() != len(a.MarshalBinary()) {
		t.Error("Size() does not match binary length")
	}
}

func TestClone(t *testing.T) {
	a := sampleAdvice()
	b := a.Clone()
	adviceEqual(t, a, b)
	b.Tags["r1"] = "tampered"
	if a.Tags["r1"] == "tampered" {
		t.Error("Clone shares tag map")
	}
	b.VarLogs["v"][0].Value = "tampered"
	if value.Equal(a.VarLogs["v"][0].Value, "tampered") {
		t.Error("Clone shares var log values")
	}
}

func TestStreamingEncodersDeterministic(t *testing.T) {
	e := sampleAdvice().VarLogs["v"][0]
	if string(AppendVarEntry(nil, &e)) != string(AppendVarEntry(nil, &e)) {
		t.Error("AppendVarEntry not deterministic")
	}
	h := sampleAdvice().HandlerLogs["r1"][0]
	if string(AppendHandlerOp(nil, &h)) != string(AppendHandlerOp(nil, &h)) {
		t.Error("AppendHandlerOp not deterministic")
	}
	x := sampleAdvice().TxLogs[0].Ops[2]
	if string(AppendTxOp(nil, &x)) != string(AppendTxOp(nil, &x)) {
		t.Error("AppendTxOp not deterministic")
	}
}

func TestEmptyAdviceRoundTrip(t *testing.T) {
	a := New(ModeOrochiJS)
	b, err := UnmarshalBinary(a.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if b.Mode != ModeOrochiJS {
		t.Errorf("mode = %q", b.Mode)
	}
}

func TestQuickValueRoundTripThroughBinary(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		a := New(ModeKarousos)
		a.Nondet = []NondetEntry{{Op: core.Op{RID: "r", HID: "h", Num: 1}, Value: v}}
		b, err := UnmarshalBinary(a.MarshalBinary())
		if err != nil {
			return false
		}
		return value.Equal(b.Nondet[0].Value, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomValue(r *rand.Rand, depth int) value.V {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return r.Intn(2) == 0
		case 2:
			return float64(r.Intn(1000))
		default:
			return string(rune('a' + r.Intn(26)))
		}
	}
	switch r.Intn(6) {
	case 0, 1:
		return float64(r.Intn(100))
	case 2:
		return string(rune('a' + r.Intn(26)))
	case 3:
		n := r.Intn(4)
		l := make([]value.V, n)
		for i := range l {
			l[i] = randomValue(r, depth-1)
		}
		return l
	default:
		n := r.Intn(4)
		m := make(map[string]value.V, n)
		for i := 0; i < n; i++ {
			m[string(rune('a'+r.Intn(26)))] = randomValue(r, depth-1)
		}
		return m
	}
}
