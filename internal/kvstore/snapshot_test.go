package kvstore

import "testing"

func TestSISnapshotReads(t *testing.T) {
	s := New(SnapshotIsolation)
	w1 := s.Begin()
	w1.Put("k", "v1", ref("r1", "t1", 2))
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}

	reader := s.Begin() // snapshot: sees v1
	w2 := s.Begin()
	w2.Put("k", "v2", ref("r2", "t2", 2))
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	v, ref1, found, err := reader.Get("k")
	if err != nil || !found {
		t.Fatalf("snapshot read: %v", err)
	}
	if v != "v1" || ref1 != ref("r1", "t1", 2) {
		t.Errorf("snapshot read observed %v from %v, want v1", v, ref1)
	}
	// A fresh transaction sees v2.
	late := s.Begin()
	v2, _, _, _ := late.Get("k")
	if v2 != "v2" {
		t.Errorf("fresh read = %v, want v2", v2)
	}
}

func TestSIRepeatableReads(t *testing.T) {
	s := New(SnapshotIsolation)
	seed := s.Begin()
	seed.Put("k", "v1", ref("r0", "t0", 2))
	seed.Commit()

	reader := s.Begin()
	v1, _, _, _ := reader.Get("k")
	w := s.Begin()
	w.Put("k", "v2", ref("r1", "t1", 2))
	w.Commit()
	v2, _, _, _ := reader.Get("k")
	if v1 != v2 {
		t.Errorf("non-repeatable read under SI: %v then %v", v1, v2)
	}
}

// TestSIFirstCommitterWins: the classic lost-update scenario is prevented —
// two transactions both read and both write the same key; the second
// committer aborts.
func TestSIFirstCommitterWins(t *testing.T) {
	s := New(SnapshotIsolation)
	seed := s.Begin()
	seed.Put("counter", float64(0), ref("r0", "t0", 2))
	seed.Commit()

	a := s.Begin()
	b := s.Begin()
	av, _, _, _ := a.Get("counter")
	bv, _, _, _ := b.Get("counter")
	a.Put("counter", av.(float64)+1, ref("ra", "ta", 3))
	b.Put("counter", bv.(float64)+1, ref("rb", "tb", 3))
	if err := a.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	if err := b.Commit(); err != ErrConflict {
		t.Fatalf("second committer got %v, want ErrConflict (lost update)", err)
	}
	final := s.Begin()
	v, _, _, _ := final.Get("counter")
	if v != float64(1) {
		t.Errorf("counter = %v, want 1", v)
	}
}

// TestSIWriteSkewAllowed: write skew commits under SI because the two
// transactions write different keys.
func TestSIWriteSkewAllowed(t *testing.T) {
	s := New(SnapshotIsolation)
	seed := s.Begin()
	seed.Put("a", true, ref("r0", "t0", 2))
	seed.Put("b", true, ref("r0", "t0", 3))
	seed.Commit()

	t1 := s.Begin()
	t2 := s.Begin()
	if v, _, _, _ := t1.Get("b"); v != true {
		t.Fatal("t1 read")
	}
	if v, _, _, _ := t2.Get("a"); v != true {
		t.Fatal("t2 read")
	}
	t1.Put("a", false, ref("r1", "t1", 3))
	t2.Put("b", false, ref("r2", "t2", 3))
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2 commit (write skew must be allowed under SI): %v", err)
	}
}

func TestSINoWriteLocks(t *testing.T) {
	// Under SI, concurrent writers to the same key proceed until commit.
	s := New(SnapshotIsolation)
	a := s.Begin()
	b := s.Begin()
	if err := a.Put("k", "a", ref("ra", "ta", 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("k", "b", ref("rb", "tb", 2)); err != nil {
		t.Fatalf("SI writes must not block: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != ErrConflict {
		t.Errorf("second committer got %v", err)
	}
}

func TestSITxEventsOrder(t *testing.T) {
	s := New(SnapshotIsolation)
	a := s.BeginTx("r1", "t1")
	a.Put("k", "v", ref("r1", "t1", 2))
	b := s.BeginTx("r2", "t2")
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	b.Abort()
	evs := s.TxEvents(0)
	want := []TxEvent{
		{TxBegin, "r1", "t1"},
		{TxBegin, "r2", "t2"},
		{TxCommitEvent, "r1", "t1"},
	}
	if len(evs) != len(want) {
		t.Fatalf("events = %v", evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, evs[i], want[i])
		}
	}
}

func TestSIScanReadsSnapshot(t *testing.T) {
	s := New(SnapshotIsolation)
	seed := s.Begin()
	seed.Put("p:1", "v1", ref("r0", "t0", 2))
	seed.Commit()
	reader := s.Begin()
	w := s.Begin()
	w.Put("p:2", "v2", ref("r1", "t1", 2))
	w.Commit()
	keys, _, _, err := reader.Scan("p:")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "p:1" {
		t.Errorf("snapshot scan saw %v, want only p:1", keys)
	}
}

func TestNonSILevelsRecordNoTxEvents(t *testing.T) {
	s := New(Serializable)
	a := s.BeginTx("r1", "t1")
	a.Put("k", "v", ref("r1", "t1", 2))
	a.Commit()
	if len(s.TxEvents(0)) != 0 {
		t.Error("non-SI store recorded tx events")
	}
}
