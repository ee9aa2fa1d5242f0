// Package kvstore is the transactional key-value substrate standing in for
// the paper's MySQL deployment (§4.4, §5). The paper restricts MySQL to
// single-row SELECT/UPDATE by primary key — i.e., exactly a transactional KV
// store with a PUT/GET interface — and repurposes the MySQL binlog as a
// global order of committed writes. This package provides the same three
// capabilities natively:
//
//   - transactions (tx_start / PUT / GET / tx_commit / tx_abort) under one of
//     three isolation levels: serializable (strict two-phase locking),
//     read committed (write locks only), and read uncommitted (reads may
//     observe pending writes);
//   - per-row last-writer tracking, which is how the honest server captures
//     the dictating PUT of every GET (§5);
//   - a binlog: the commit-ordered sequence of each committed transaction's
//     final write per key, which becomes the advice's write order.
//
// Conflicts use immediate abort ("no-wait" locking): an operation that would
// block instead aborts its own transaction and returns ErrConflict. This is
// deadlock-free and reproduces the retry-error behavior the paper's stack
// dump application relies on (§6).
//
// The store is used only by server-side runtimes; the verifier never touches
// a store — it replays external state purely from (untrusted) transaction
// logs, which is the whole point of the audit.
package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"karousos.dev/karousos/internal/core"
	"karousos.dev/karousos/internal/value"
)

// Isolation selects the store's isolation level (§4.4's model; snapshot
// isolation is future work in the paper and here).
type Isolation uint8

const (
	// Serializable is strict 2PL: exclusive write locks, shared read locks,
	// all held to commit.
	Serializable Isolation = iota
	// ReadCommitted holds write locks to commit but takes no read locks;
	// reads observe the latest committed version.
	ReadCommitted
	// ReadUncommitted holds write locks to commit; reads observe the latest
	// write, committed or not (dirty reads).
	ReadUncommitted
	// SnapshotIsolation is MVCC with first-committer-wins: reads observe the
	// latest version committed before the transaction began; a commit
	// aborts if any written key was committed by another transaction in the
	// meantime. This is an extension past the paper's implementation (its
	// §1 lists snapshot isolation as future work); the matching audit-side
	// test is adya.SnapshotIsolation.
	SnapshotIsolation
)

func (i Isolation) String() string {
	switch i {
	case Serializable:
		return "serializable"
	case ReadCommitted:
		return "read committed"
	case ReadUncommitted:
		return "read uncommitted"
	case SnapshotIsolation:
		return "snapshot isolation"
	}
	return fmt.Sprintf("Isolation(%d)", uint8(i))
}

// ErrConflict is returned when an operation would block on a lock held by
// another live transaction; the issuing transaction has been aborted.
var ErrConflict = errors.New("kvstore: conflict, transaction aborted")

// ErrTxDone is returned when operating on a committed or aborted transaction.
var ErrTxDone = errors.New("kvstore: transaction is not active")

// WriteRef locates a PUT inside the advice's transaction logs: the Index-th
// operation (1-based) of transaction TID of request RID. The store treats it
// as opaque provenance; it is how rows remember their last writer.
type WriteRef struct {
	RID   core.RID
	TID   core.TxID
	Index int
}

// IsZero reports whether the reference is unset (row never written).
func (w WriteRef) IsZero() bool { return w == WriteRef{} }

// version is one committed value of a row; rows keep their full version
// chains so snapshot reads can observe the past.
type version struct {
	val      value.V
	writer   WriteRef
	commitTS uint64
}

type row struct {
	// versions is the committed history, oldest first; the last entry is
	// the latest committed value. Non-snapshot levels only consult the
	// last entry.
	versions []version

	writeLock *Txn // holder of the exclusive lock, nil if free
	readLocks map[*Txn]struct{}
}

func (r *row) latest() (version, bool) {
	if len(r.versions) == 0 {
		return version{}, false
	}
	return r.versions[len(r.versions)-1], true
}

// asOf returns the newest version with commitTS ≤ ts.
func (r *row) asOf(ts uint64) (version, bool) {
	for i := len(r.versions) - 1; i >= 0; i-- {
		if r.versions[i].commitTS <= ts {
			return r.versions[i], true
		}
	}
	return version{}, false
}

// Store is a transactional KV store. It is safe for use from a single
// dispatch-loop goroutine; a mutex guards against accidental cross-goroutine
// use in examples.
// TxEventKind distinguishes begin and commit events in the store's
// transaction-order log.
type TxEventKind uint8

const (
	// TxBegin marks a transaction's start.
	TxBegin TxEventKind = iota
	// TxCommitEvent marks a successful commit.
	TxCommitEvent
)

// TxEvent is one entry of the transaction-order log: under snapshot
// isolation the alleged begin/commit order is part of the advice, because
// Adya's G-SI phenomena are defined over it.
type TxEvent struct {
	Kind TxEventKind
	RID  core.RID
	TID  core.TxID
}

type Store struct {
	mu     sync.Mutex
	level  Isolation
	rows   map[string]*row
	binlog []WriteRef
	// ts is the logical commit clock for snapshot isolation.
	ts uint64
	// txEvents is the begin/commit order, recorded under snapshot isolation.
	txEvents []TxEvent
	// prefixHolders tracks transactions that hold predicate locks.
	prefixHolders map[*Txn]struct{}

	commits, aborts, conflicts int
}

// New returns an empty store at the given isolation level.
func New(level Isolation) *Store {
	return &Store{level: level, rows: make(map[string]*row), prefixHolders: make(map[*Txn]struct{})}
}

// Level returns the store's isolation level.
func (s *Store) Level() Isolation { return s.level }

// Txn is one open transaction.
type Txn struct {
	st   *Store
	done bool

	// owner identifies the transaction in the advice (set by BeginTx).
	ownerRID core.RID
	ownerTID core.TxID
	// startTS is the snapshot timestamp under snapshot isolation.
	startTS uint64

	pending map[string]pendingWrite
	// lastWriteOrder records keys in order of their most recent PUT, so the
	// binlog appends a committed transaction's final writes in the order the
	// program issued them.
	lastWriteOrder []string
	readLocked     map[string]struct{}
	writeLocked    map[string]struct{}
	// prefixLocks are predicate locks taken by Scan under Serializable;
	// writes by other transactions to matching keys conflict (no phantoms).
	prefixLocks []string
}

type pendingWrite struct {
	val value.V
	ref WriteRef
}

// Begin opens an anonymous transaction (tests and tools); servers use
// BeginTx so the transaction-order log can identify it.
func (s *Store) Begin() *Txn { return s.BeginTx("", "") }

// BeginTx opens a transaction owned by (rid, tid). Under snapshot isolation
// the transaction's snapshot is fixed here and a begin event enters the
// transaction-order log.
func (s *Store) BeginTx(rid core.RID, tid core.TxID) *Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &Txn{
		st:          s,
		ownerRID:    rid,
		ownerTID:    tid,
		startTS:     s.ts,
		pending:     make(map[string]pendingWrite),
		readLocked:  make(map[string]struct{}),
		writeLocked: make(map[string]struct{}),
	}
	if s.level == SnapshotIsolation {
		s.txEvents = append(s.txEvents, TxEvent{Kind: TxBegin, RID: rid, TID: tid})
	}
	return t
}

func (s *Store) getRow(key string) *row {
	r, ok := s.rows[key]
	if !ok {
		r = &row{readLocks: make(map[*Txn]struct{})}
		s.rows[key] = r
	}
	return r
}

// Get reads the row at key. It returns the observed value, the WriteRef of
// the write it observed (the dictating PUT; zero if the row was never
// written), and found=false when the row does not exist at the observed
// version. Under Serializable it takes a read lock and may return
// ErrConflict, aborting t.
func (t *Txn) Get(key string) (v value.V, ref WriteRef, found bool, err error) {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if t.done {
		return nil, WriteRef{}, false, ErrTxDone
	}
	// Read-your-writes comes first at every isolation level.
	if pw, ok := t.pending[key]; ok {
		return value.Clone(pw.val), pw.ref, true, nil
	}
	r := t.st.getRow(key)
	switch t.st.level {
	case Serializable:
		if r.writeLock != nil && r.writeLock != t {
			t.abortLocked()
			return nil, WriteRef{}, false, ErrConflict
		}
		r.readLocks[t] = struct{}{}
		t.readLocked[key] = struct{}{}
	case ReadUncommitted:
		if r.writeLock != nil && r.writeLock != t {
			// Dirty read of the lock holder's pending write.
			pw := r.writeLock.pending[key]
			return value.Clone(pw.val), pw.ref, true, nil
		}
	case ReadCommitted:
		// Latest committed version, no locks.
	case SnapshotIsolation:
		ver, ok := r.asOf(t.startTS)
		if !ok {
			return nil, WriteRef{}, false, nil
		}
		return value.Clone(ver.val), ver.writer, true, nil
	}
	ver, ok := r.latest()
	if !ok {
		return nil, WriteRef{}, false, nil
	}
	return value.Clone(ver.val), ver.writer, true, nil
}

// Put writes val to the row at key, recording ref as the write's provenance.
// It takes the exclusive write lock and may return ErrConflict, aborting t.
func (t *Txn) Put(key string, val value.V, ref WriteRef) error {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	r := t.st.getRow(key)
	if t.st.level != SnapshotIsolation {
		if r.writeLock != nil && r.writeLock != t {
			t.abortLocked()
			return ErrConflict
		}
		if t.st.level == Serializable {
			for reader := range r.readLocks {
				if reader != t {
					t.abortLocked()
					return ErrConflict
				}
			}
			if t.st.prefixConflicts(t, key) {
				t.abortLocked()
				return ErrConflict
			}
		}
		r.writeLock = t
		t.writeLocked[key] = struct{}{}
	}
	if _, rewrote := t.pending[key]; rewrote {
		// Move key to the end of the last-write order.
		for i, k := range t.lastWriteOrder {
			if k == key {
				t.lastWriteOrder = append(t.lastWriteOrder[:i], t.lastWriteOrder[i+1:]...)
				break
			}
		}
	}
	t.pending[key] = pendingWrite{val: value.Clone(value.Normalize(val)), ref: ref}
	t.lastWriteOrder = append(t.lastWriteOrder, key)
	return nil
}

// Commit installs the transaction's writes, appends its final write per key
// to the binlog in program order, and releases all locks. Under snapshot
// isolation the commit first validates first-committer-wins: if another
// transaction committed any written key since this transaction began, the
// commit aborts with ErrConflict.
func (t *Txn) Commit() error {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	if t.st.level == SnapshotIsolation {
		for key := range t.pending {
			if ver, ok := t.st.getRow(key).latest(); ok && ver.commitTS > t.startTS {
				t.abortLocked()
				return ErrConflict
			}
		}
	}
	t.st.ts++
	commitTS := t.st.ts
	for _, key := range t.lastWriteOrder {
		pw := t.pending[key]
		r := t.st.getRow(key)
		r.versions = append(r.versions, version{val: pw.val, writer: pw.ref, commitTS: commitTS})
		t.st.binlog = append(t.st.binlog, pw.ref)
	}
	if t.st.level == SnapshotIsolation {
		t.st.txEvents = append(t.st.txEvents, TxEvent{Kind: TxCommitEvent, RID: t.ownerRID, TID: t.ownerTID})
	}
	t.release()
	t.done = true
	t.st.commits++
	return nil
}

// Abort rolls the transaction back and releases its locks. Aborting a done
// transaction is a no-op.
func (t *Txn) Abort() {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if t.done {
		return
	}
	t.abortLocked()
}

func (t *Txn) abortLocked() {
	t.release()
	t.done = true
	t.st.aborts++
	t.st.conflicts++ // all aborts via abortLocked stem from conflicts or explicit Abort
}

func (t *Txn) release() {
	delete(t.st.prefixHolders, t)
	for key := range t.readLocked {
		delete(t.st.rows[key].readLocks, t)
	}
	for key := range t.writeLocked {
		if r := t.st.rows[key]; r.writeLock == t {
			r.writeLock = nil
		}
	}
}

// Active reports whether the transaction can still issue operations.
func (t *Txn) Active() bool {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	return !t.done
}

// Binlog returns the commit-ordered global write order (the advice's
// writeOrder source, §4.4/§5) from position from on, so a caller that
// drains it periodically copies only what is new. The returned slice is a
// copy.
func (s *Store) Binlog(from int) []WriteRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WriteRef(nil), s.binlog[from:]...)
}

// TxEvents returns the begin/commit order recorded under snapshot isolation
// (empty at other levels) from position from on. The returned slice is a
// copy.
func (s *Store) TxEvents(from int) []TxEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TxEvent(nil), s.txEvents[from:]...)
}

// Stats returns commit/abort counters, used by tests and the stacks app's
// retry accounting.
func (s *Store) Stats() (commits, aborts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits, s.aborts
}

// SnapshotCommitted returns the committed state as a map, for tests that
// compare end states across executions.
func (s *Store) SnapshotCommitted() map[string]value.V {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]value.V, len(s.rows))
	for k, r := range s.rows {
		if ver, ok := r.latest(); ok {
			out[k] = value.Clone(ver.val)
		}
	}
	return out
}

// Range queries (the paper's §1 names them as future work; this
// implementation adds them with genuine predicate locking at the store).
//
// Scan returns the committed rows whose keys start with prefix, in key
// order. Under Serializable the transaction takes a predicate (prefix) lock:
// a later Put by another transaction whose key matches the prefix conflicts
// and aborts the writer, so the store itself admits no phantoms. Under the
// weaker levels Scan reads the latest committed versions without locking.
func (t *Txn) Scan(prefix string) (keys []string, vals []value.V, refs []WriteRef, err error) {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if t.done {
		return nil, nil, nil, ErrTxDone
	}
	if t.st.level == Serializable {
		// A pending write by another transaction that matches the prefix is
		// a read-write conflict right now.
		for key, r := range t.st.rows {
			if strings.HasPrefix(key, prefix) && r.writeLock != nil && r.writeLock != t {
				t.abortLocked()
				return nil, nil, nil, ErrConflict
			}
		}
		t.prefixLocks = append(t.prefixLocks, prefix)
		t.st.prefixHolders[t] = struct{}{}
	}
	visible := func(r *row) (version, bool) {
		if t.st.level == SnapshotIsolation {
			return r.asOf(t.startTS)
		}
		return r.latest()
	}
	var ks []string
	for key, r := range t.st.rows {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		_, pending := t.pending[key]
		if _, ok := visible(r); pending || ok {
			ks = append(ks, key)
		}
	}
	sort.Strings(ks)
	for _, key := range ks {
		if pw, ok := t.pending[key]; ok { // read-your-writes
			keys = append(keys, key)
			vals = append(vals, value.Clone(pw.val))
			refs = append(refs, pw.ref)
			continue
		}
		ver, _ := visible(t.st.rows[key])
		keys = append(keys, key)
		vals = append(vals, value.Clone(ver.val))
		refs = append(refs, ver.writer)
	}
	return keys, vals, refs, nil
}

// prefixConflicts reports whether key matches a prefix lock held by a live
// transaction other than t.
func (s *Store) prefixConflicts(t *Txn, key string) bool {
	for other := range s.prefixHolders {
		if other == t || other.done {
			continue
		}
		for _, p := range other.prefixLocks {
			if strings.HasPrefix(key, p) {
				return true
			}
		}
	}
	return false
}
