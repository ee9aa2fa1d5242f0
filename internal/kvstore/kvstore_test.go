package kvstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"karousos.dev/karousos/internal/adya"
	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

func ref(rid string, tid string, idx int) WriteRef {
	return WriteRef{RID: core.RID(rid), TID: core.TxID(tid), Index: idx}
}

func TestCommitVisibility(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	if err := t1.Put("k", "v1", ref("r1", "t1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := s.Begin()
	v, w, found, err := t2.Get("k")
	if err != nil || !found {
		t.Fatalf("get after commit: %v found=%v", err, found)
	}
	if v != "v1" || w != ref("r1", "t1", 2) {
		t.Errorf("got %v from %v", v, w)
	}
}

func TestAbortDiscards(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t1.Put("k", "v1", ref("r1", "t1", 2))
	t1.Abort()
	t2 := s.Begin()
	_, _, found, err := t2.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("aborted write visible")
	}
	if len(s.Binlog(0)) != 0 {
		t.Error("aborted write in binlog")
	}
}

func TestReadYourWrites(t *testing.T) {
	for _, lvl := range []Isolation{Serializable, ReadCommitted, ReadUncommitted} {
		s := New(lvl)
		t1 := s.Begin()
		t1.Put("k", "mine", ref("r1", "t1", 2))
		v, w, found, err := t1.Get("k")
		if err != nil || !found || v != "mine" || w != ref("r1", "t1", 2) {
			t.Errorf("%v: read-your-writes failed: %v %v %v %v", lvl, v, w, found, err)
		}
	}
}

func TestGetAbsentRow(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	v, w, found, err := t1.Get("missing")
	if err != nil || found || v != nil || !w.IsZero() {
		t.Errorf("absent row: %v %v %v %v", v, w, found, err)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	for _, lvl := range []Isolation{Serializable, ReadCommitted, ReadUncommitted} {
		s := New(lvl)
		t1 := s.Begin()
		t2 := s.Begin()
		if err := t1.Put("k", "a", ref("r1", "t1", 2)); err != nil {
			t.Fatal(err)
		}
		if err := t2.Put("k", "b", ref("r2", "t2", 2)); err != ErrConflict {
			t.Errorf("%v: second writer got %v, want ErrConflict", lvl, err)
		}
		if t2.Active() {
			t.Errorf("%v: conflicting transaction still active", lvl)
		}
		// t1 can still commit.
		if err := t1.Commit(); err != nil {
			t.Errorf("%v: winner commit failed: %v", lvl, err)
		}
	}
}

func TestSerializableReadWriteConflict(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t2 := s.Begin()
	if _, _, _, err := t1.Get("k"); err != nil {
		t.Fatal(err)
	}
	// t2 writing a key t1 read must conflict under strict 2PL.
	if err := t2.Put("k", "x", ref("r2", "t2", 2)); err != ErrConflict {
		t.Errorf("write over read lock got %v, want ErrConflict", err)
	}
}

func TestSerializableReadOfWriteLockedConflicts(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t1.Put("k", "x", ref("r1", "t1", 2))
	t2 := s.Begin()
	if _, _, _, err := t2.Get("k"); err != ErrConflict {
		t.Errorf("read of write-locked row got %v, want ErrConflict", err)
	}
}

func TestReadCommittedIgnoresOthersPending(t *testing.T) {
	s := New(ReadCommitted)
	seed := s.Begin()
	seed.Put("k", "old", ref("r0", "t0", 2))
	seed.Commit()
	t1 := s.Begin()
	t1.Put("k", "new", ref("r1", "t1", 2))
	t2 := s.Begin()
	v, w, found, err := t2.Get("k")
	if err != nil || !found {
		t.Fatalf("read committed get: %v", err)
	}
	if v != "old" || w != ref("r0", "t0", 2) {
		t.Errorf("read committed observed pending write: %v from %v", v, w)
	}
}

func TestReadUncommittedSeesDirty(t *testing.T) {
	s := New(ReadUncommitted)
	seed := s.Begin()
	seed.Put("k", "old", ref("r0", "t0", 2))
	seed.Commit()
	t1 := s.Begin()
	t1.Put("k", "dirty", ref("r1", "t1", 2))
	t2 := s.Begin()
	v, w, found, err := t2.Get("k")
	if err != nil || !found {
		t.Fatalf("dirty read failed: %v", err)
	}
	if v != "dirty" || w != ref("r1", "t1", 2) {
		t.Errorf("read uncommitted should see pending write, got %v from %v", v, w)
	}
}

func TestUpgradeOwnReadLock(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	if _, _, _, err := t1.Get("k"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("k", "v", ref("r1", "t1", 3)); err != nil {
		t.Errorf("upgrading own read lock should succeed: %v", err)
	}
}

func TestLocksReleasedOnCommit(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t1.Put("k", "v", ref("r1", "t1", 2))
	t1.Commit()
	t2 := s.Begin()
	if err := t2.Put("k", "w", ref("r2", "t2", 2)); err != nil {
		t.Errorf("lock not released by commit: %v", err)
	}
}

func TestLocksReleasedOnAbort(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t1.Put("k", "v", ref("r1", "t1", 2))
	t1.Abort()
	t2 := s.Begin()
	if err := t2.Put("k", "w", ref("r2", "t2", 2)); err != nil {
		t.Errorf("lock not released by abort: %v", err)
	}
}

func TestOpsOnDoneTransaction(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t1.Commit()
	if _, _, _, err := t1.Get("k"); err != ErrTxDone {
		t.Errorf("Get on done tx: %v", err)
	}
	if err := t1.Put("k", "v", WriteRef{}); err != ErrTxDone {
		t.Errorf("Put on done tx: %v", err)
	}
	if err := t1.Commit(); err != ErrTxDone {
		t.Errorf("Commit on done tx: %v", err)
	}
	t1.Abort() // must be a no-op, not a panic
}

func TestBinlogOrderAndLastModification(t *testing.T) {
	s := New(Serializable)
	t1 := s.Begin()
	t1.Put("a", "a1", ref("r1", "t1", 2))
	t1.Put("b", "b1", ref("r1", "t1", 3))
	t1.Put("a", "a2", ref("r1", "t1", 4)) // rewrites a: only last modification in binlog
	t1.Commit()
	t2 := s.Begin()
	t2.Put("b", "b2", ref("r2", "t2", 2))
	t2.Commit()
	bl := s.Binlog(0)
	want := []WriteRef{ref("r1", "t1", 3), ref("r1", "t1", 4), ref("r2", "t2", 2)}
	if len(bl) != len(want) {
		t.Fatalf("binlog = %v", bl)
	}
	for i := range want {
		if bl[i] != want[i] {
			t.Errorf("binlog[%d] = %v, want %v", i, bl[i], want[i])
		}
	}
}

func TestStats(t *testing.T) {
	s := New(Serializable)
	a := s.Begin()
	a.Put("k", "v", WriteRef{})
	a.Commit()
	b := s.Begin()
	b.Put("k", "w", WriteRef{})
	b.Abort()
	commits, aborts := s.Stats()
	if commits != 1 || aborts != 1 {
		t.Errorf("stats = %d commits, %d aborts", commits, aborts)
	}
}

func TestSnapshotCommitted(t *testing.T) {
	s := New(Serializable)
	a := s.Begin()
	a.Put("k", value.Map("n", 1), WriteRef{})
	a.Commit()
	b := s.Begin()
	b.Put("j", "pending", WriteRef{})
	snap := s.SnapshotCommitted()
	if len(snap) != 1 || !value.Equal(snap["k"], value.Map("n", 1)) {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestValuesClonedOnGet(t *testing.T) {
	s := New(Serializable)
	a := s.Begin()
	a.Put("k", value.Map("n", 1), WriteRef{})
	a.Commit()
	b := s.Begin()
	v, _, _, _ := b.Get("k")
	v.(map[string]value.V)["n"] = float64(99)
	c := s.Begin()
	// c conflicts with b's read lock? No: reads share. Read again.
	w, _, _, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if w.(map[string]value.V)["n"] != float64(1) {
		t.Error("mutating a Get result corrupted the store")
	}
}

// TestQuickSerializableHistoriesPassAdya runs random single-threaded
// transaction workloads under the serializable store, reconstructs the Adya
// history from the store's outputs, and checks the serializability test
// passes — the store and the checker must agree about what serializable
// means.
func TestQuickSerializableHistoriesPassAdya(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(Serializable)
		keys := []string{"a", "b", "c"}
		h := &adya.History{WriteOrderPerKey: map[string][]adya.Write{}}
		var open []*Txn
		meta := map[*Txn]adya.TxKey{}
		lastMod := map[*Txn]map[string]int{}
		opIdx := map[*Txn]int{}
		txn := 0
		for step := 0; step < 60; step++ {
			if len(open) == 0 || r.Intn(4) == 0 {
				tx := s.Begin()
				txn++
				open = append(open, tx)
				meta[tx] = adya.TxKey{RID: "r", TID: string(rune('A' + txn))}
				lastMod[tx] = map[string]int{}
				opIdx[tx] = 1
				continue
			}
			tx := open[r.Intn(len(open))]
			if !tx.Active() {
				continue
			}
			switch r.Intn(5) {
			case 0: // commit
				if err := tx.Commit(); err == nil {
					h.Committed = append(h.Committed, meta[tx])
				}
			case 1: // abort
				tx.Abort()
			case 2, 3: // put
				k := keys[r.Intn(len(keys))]
				opIdx[tx]++
				if err := tx.Put(k, float64(step), WriteRef{RID: core.RID(meta[tx].RID), TID: core.TxID(meta[tx].TID), Index: opIdx[tx]}); err == nil {
					lastMod[tx][k] = opIdx[tx]
				}
			default: // get
				k := keys[r.Intn(len(keys))]
				opIdx[tx]++
				v, w, found, err := tx.Get(k)
				_ = v
				if err == nil && found && !w.IsZero() {
					h.Reads = append(h.Reads, adya.Read{
						From:  adya.Write{Tx: adya.TxKey{RID: string(w.RID), TID: string(w.TID)}, Pos: w.Index},
						By:    meta[tx],
						ByPos: opIdx[tx],
					})
				}
			}
		}
		for _, tx := range open {
			tx.Abort()
		}
		for _, ref := range s.Binlog(0) {
			w := adya.Write{Tx: adya.TxKey{RID: string(ref.RID), TID: string(ref.TID)}, Pos: ref.Index}
			// Reconstruct per-key order from binlog via the last-mod map.
			for txp, mods := range lastMod {
				if meta[txp].TID == string(ref.TID) {
					for k, idx := range mods {
						if idx == ref.Index {
							h.WriteOrderPerKey[k] = append(h.WriteOrderPerKey[k], w)
						}
					}
				}
			}
		}
		return adya.Check(h, adya.Serializable) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
