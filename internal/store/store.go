// Package store is the shared tuple-storage layer of the FVN toolchain:
// one table implementation with primary-key replacement, soft-state
// lifetimes, and hash indexes, plus the executor for the compiled join
// plans produced by internal/ndlog analysis. Both the centralized Datalog
// engine and the distributed runtime store tuples and evaluate rule
// bodies through this package, so semi-naive deltas, negation, and
// aggregates have exactly one implementation.
package store

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// PutResult classifies the effect of a keyed Put.
type PutResult uint8

// The Put outcomes.
const (
	PutNoop    PutResult = iota // an identical tuple was already present
	PutNew                      // no tuple with this primary key existed
	PutReplace                  // a different tuple with the same key was replaced
)

// Table is a tuple store. Tuples are unique per primary key (Keys; the
// whole tuple when empty): inserting a second tuple with an existing key
// replaces the first, which is how route updates supersede old routes.
// Scans run in insertion order, deletes are O(1) via a key→position map
// with tombstones compacted lazily, and hash indexes are built on demand
// and maintained incrementally. Even reads may compact or build an index,
// so a table is single-goroutine state, like the Exec that scans it.
type Table struct {
	Name     string
	Arity    int
	Keys     []int   // 0-based primary-key columns; empty = whole tuple
	Lifetime float64 // soft-state lifetime in seconds; 0 = hard state

	byKey   map[string]int // primary key -> position in order
	order   []value.Tuple  // insertion order; nil entries are tombstones
	holes   int
	refresh map[string]float64 // key -> last Put time (soft state only)
	indexes map[string]*Index
	keyBuf  []byte

	// pins counts outstanding live scans of this table. While pinned,
	// compact() is deferred (so an All window is never rewritten under an
	// outer iteration — scans skip the nil tombstones instead) and index
	// bucket removal copies instead of shifting in place.
	pins int
}

// New returns an empty table. keys are 0-based primary-key columns (nil
// for whole-tuple identity, i.e. set semantics); lifetime > 0 enables
// per-key refresh tracking for soft state.
func New(name string, arity int, keys []int, lifetime float64) *Table {
	t := &Table{
		Name:     name,
		Arity:    arity,
		Keys:     append([]int(nil), keys...),
		Lifetime: lifetime,
		byKey:    map[string]int{},
	}
	if lifetime > 0 {
		t.refresh = map[string]float64{}
	}
	return t
}

func (t *Table) appendKeyOf(b []byte, tup value.Tuple) []byte {
	if len(t.Keys) == 0 {
		return tup.AppendKey(b)
	}
	for i, c := range t.Keys {
		if i > 0 {
			b = append(b, '|')
		}
		b = tup[c].AppendKey(b)
	}
	return b
}

// KeyOf returns the primary-key encoding of tup.
func (t *Table) KeyOf(tup value.Tuple) string {
	t.keyBuf = t.appendKeyOf(t.keyBuf[:0], tup)
	return string(t.keyBuf)
}

// Len returns the number of live tuples.
func (t *Table) Len() int { return len(t.order) - t.holes }

// Put stores tup under its primary key, replacing any previous tuple
// with the same key, and refreshes the key's soft-state timestamp. It
// returns what happened and, for PutReplace and PutNoop, the previous
// tuple.
func (t *Table) Put(tup value.Tuple, now float64) (PutResult, value.Tuple, error) {
	if len(tup) != t.Arity {
		return PutNoop, nil, fmt.Errorf("store: %s expects arity %d, got %v", t.Name, t.Arity, tup)
	}
	t.keyBuf = t.appendKeyOf(t.keyBuf[:0], tup)
	if t.refresh != nil {
		t.refresh[string(t.keyBuf)] = now
	}
	if pos, ok := t.byKey[string(t.keyBuf)]; ok {
		old := t.order[pos]
		if old.Equal(tup) {
			return PutNoop, old, nil
		}
		t.order[pos] = tup
		cow := t.pins != 0
		for _, ix := range t.indexes {
			ix.remove(old, cow)
			ix.add(tup)
		}
		return PutReplace, old, nil
	}
	t.byKey[string(t.keyBuf)] = len(t.order)
	t.order = append(t.order, tup)
	for _, ix := range t.indexes {
		ix.add(tup)
	}
	return PutNew, nil, nil
}

// Insert adds tup with set semantics (for whole-tuple-keyed tables),
// reporting whether it was new. It errors on arity mismatch.
func (t *Table) Insert(tup value.Tuple) (bool, error) {
	res, _, err := t.Put(tup, 0)
	return res == PutNew, err
}

// Delete removes exactly tup, reporting whether it was present. O(1).
func (t *Table) Delete(tup value.Tuple) bool {
	if len(tup) != t.Arity {
		return false
	}
	t.keyBuf = t.appendKeyOf(t.keyBuf[:0], tup)
	pos, ok := t.byKey[string(t.keyBuf)]
	if !ok || !t.order[pos].Equal(tup) {
		return false
	}
	t.removeAt(string(t.keyBuf), pos)
	return true
}

// DeleteByKey removes the tuple stored under the given primary key,
// returning it.
func (t *Table) DeleteByKey(key string) (value.Tuple, bool) {
	pos, ok := t.byKey[key]
	if !ok {
		return nil, false
	}
	old := t.order[pos]
	t.removeAt(key, pos)
	return old, true
}

func (t *Table) removeAt(key string, pos int) {
	old := t.order[pos]
	delete(t.byKey, key)
	if t.refresh != nil {
		delete(t.refresh, key)
	}
	t.order[pos] = nil
	t.holes++
	cow := t.pins != 0
	for _, ix := range t.indexes {
		ix.remove(old, cow)
	}
}

// Get returns the tuple stored under the given primary key.
func (t *Table) Get(key string) (value.Tuple, bool) {
	pos, ok := t.byKey[key]
	if !ok {
		return nil, false
	}
	return t.order[pos], true
}

// Contains reports whether exactly tup is stored.
func (t *Table) Contains(tup value.Tuple) bool {
	if len(tup) != t.Arity {
		return false
	}
	t.keyBuf = t.appendKeyOf(t.keyBuf[:0], tup)
	pos, ok := t.byKey[string(t.keyBuf)]
	return ok && t.order[pos].Equal(tup)
}

// RefreshAt returns the last Put time of the given key (soft state).
func (t *Table) RefreshAt(key string) (float64, bool) {
	v, ok := t.refresh[key]
	return v, ok
}

// Pin defers compaction (and in-place index bucket shifts) until the
// matching Unpin, making it safe to iterate an All window across
// deletions: deleted entries become nil tombstones in place instead of
// shifting surviving tuples under the iteration. Pins nest. Scanners
// must skip nil entries while a pin may be held.
func (t *Table) Pin() { t.pins++ }

// Unpin releases one Pin.
func (t *Table) Unpin() { t.pins-- }

// All returns the live tuples in insertion order. The slice aliases the
// table's storage: callers must not mutate it, and deletions invalidate
// it at the next unpinned All call. Inserting while iterating is safe
// (appends land past the returned window). While the table is pinned the
// window may contain nil tombstones, which scanners must skip.
func (t *Table) All() []value.Tuple {
	t.compact()
	return t.order
}

// Snapshot returns a fresh copy of the live tuples in insertion order,
// safe to hold across mutations.
func (t *Table) Snapshot() []value.Tuple {
	t.compact()
	if t.holes == 0 {
		return append([]value.Tuple(nil), t.order...)
	}
	// Pinned with outstanding tombstones: copy only the live tuples.
	out := make([]value.Tuple, 0, len(t.order)-t.holes)
	for _, tup := range t.order {
		if tup != nil {
			out = append(out, tup)
		}
	}
	return out
}

func (t *Table) compact() {
	if t.holes == 0 || t.pins != 0 {
		return
	}
	live := t.order[:0]
	for _, tup := range t.order {
		if tup == nil {
			continue
		}
		t.keyBuf = t.appendKeyOf(t.keyBuf[:0], tup)
		t.byKey[string(t.keyBuf)] = len(live)
		live = append(live, tup)
	}
	t.order = live
	t.holes = 0
}

// Sorted returns the tuples in lexicographic order (for deterministic
// output).
func (t *Table) Sorted() []value.Tuple {
	out := t.Snapshot()
	value.SortTuples(out)
	return out
}

// Digest returns an order-independent fingerprint of the live tuples:
// the XOR of each tuple's splitmix64 content hash. Two tables with the
// same tuple set digest identically regardless of insertion order, so a
// digest comparison is the cheap first step of the anti-entropy
// relation exchange (collisions are as improbable as model-checker
// fingerprint collisions, ~2^-64 per pair).
func (t *Table) Digest() uint64 {
	var d uint64
	for _, tup := range t.order {
		if tup != nil {
			d ^= tup.Hash64(value.HashSeed)
		}
	}
	return d
}

// Clear removes all tuples. Existing Index handles stay valid (they are
// emptied in place).
func (t *Table) Clear() {
	t.byKey = map[string]int{}
	t.order = nil
	t.holes = 0
	if t.refresh != nil {
		t.refresh = map[string]float64{}
	}
	for _, ix := range t.indexes {
		ix.clear()
	}
}

// Lookup returns the tuples whose cols project onto vals, via a hash
// index built on first use. With no columns it returns all tuples. The
// result aliases internal storage. The key is built in a local buffer,
// never in shared index state, so a nested lookup cannot overwrite an
// outer lookup's key.
func (t *Table) Lookup(cols []int, vals []value.V) []value.Tuple {
	if len(cols) == 0 {
		return t.All()
	}
	ix := t.IndexOn(cols)
	var arr [64]byte
	b := arr[:0]
	for i, v := range vals {
		if i > 0 {
			b = append(b, '|')
		}
		b = v.AppendKey(b)
	}
	return ix.buckets[string(b)]
}

// IndexOn returns the hash index over cols, building it on first use
// from the insertion-order scan (deterministic) and maintaining it
// incrementally afterwards.
func (t *Table) IndexOn(cols []int) *Index {
	var sig strings.Builder
	for i, c := range cols {
		if i > 0 {
			sig.WriteByte(',')
		}
		sig.WriteString(strconv.Itoa(c))
	}
	if ix, ok := t.indexes[sig.String()]; ok {
		return ix
	}
	ix := &Index{cols: append([]int(nil), cols...), buckets: map[string][]value.Tuple{}}
	for _, tup := range t.All() {
		if tup != nil {
			ix.add(tup)
		}
	}
	if t.indexes == nil {
		t.indexes = map[string]*Index{}
	}
	t.indexes[sig.String()] = ix
	return ix
}

// String renders the table contents deterministically, one tuple per
// line in sorted order.
func (t *Table) String() string {
	var b strings.Builder
	for _, tup := range t.Sorted() {
		b.WriteString(t.Name)
		b.WriteString(tup.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Index is a hash index over a column set: each bucket holds the tuples
// whose indexed columns encode (value.V.AppendKey, '|'-separated) to its
// key. The table keeps it current through every Put, Delete and Clear.
type Index struct {
	cols    []int
	buckets map[string][]value.Tuple
	keyBuf  []byte // add/remove scratch; never read by probes
}

// Bucket returns the tuples whose indexed columns encode to key (built
// with value.V.AppendKey, '|'-separated). The non-allocating
// map[string(key)] conversion makes this the zero-allocation probe path.
func (ix *Index) Bucket(key []byte) []value.Tuple { return ix.buckets[string(key)] }

func (ix *Index) clear() { ix.buckets = map[string][]value.Tuple{} }

// setKey encodes tup's indexed columns into keyBuf.
func (ix *Index) setKey(tup value.Tuple) {
	ix.keyBuf = ix.keyBuf[:0]
	for i, c := range ix.cols {
		if i > 0 {
			ix.keyBuf = append(ix.keyBuf, '|')
		}
		ix.keyBuf = tup[c].AppendKey(ix.keyBuf)
	}
}

func (ix *Index) add(tup value.Tuple) {
	ix.setKey(tup)
	ix.buckets[string(ix.keyBuf)] = append(ix.buckets[string(ix.keyBuf)], tup)
}

// remove drops tup from its bucket. cow forces a copy-on-write update:
// while the owning table is pinned, an outstanding scan may hold the
// bucket slice, so surviving tuples must not be shifted under it.
func (ix *Index) remove(tup value.Tuple, cow bool) {
	ix.setKey(tup)
	b := ix.buckets[string(ix.keyBuf)]
	for i, u := range b {
		if u.Equal(tup) {
			if cow {
				nb := make([]value.Tuple, 0, len(b)-1)
				nb = append(nb, b[:i]...)
				nb = append(nb, b[i+1:]...)
				ix.buckets[string(ix.keyBuf)] = nb
				return
			}
			copy(b[i:], b[i+1:])
			b[len(b)-1] = nil
			ix.buckets[string(ix.keyBuf)] = b[:len(b)-1]
			return
		}
	}
}
