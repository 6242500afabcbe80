// Package prov records derivation provenance for the FVN runtimes: a
// compact, append-only graph whose nodes are tuple versions, rule
// firings, message deliveries, fault events, and retractions, and whose
// edges are antecedent references. The centralized engine and the
// distributed runtime append entries as they derive; `fvn why`, the
// chaos campaign's root-cause reports, and (eventually) counting-based
// incremental deletion read the graph back.
//
// The representation follows the same discipline as internal/obs: a nil
// *Recorder is the valid disabled recorder, every method on it is a
// no-op behind a single nil check, and the enabled path stores
// fixed-size entries in one arena slice with all strings interned to
// int32 ids — no per-derivation map or per-entry allocation beyond the
// amortized arena growth. A Recorder is single-goroutine state, like
// the evaluator that feeds it.
package prov

import (
	"repro/internal/obs"
	"repro/internal/value"
)

// ID names one entry of a recorder's arena. 0 is "no entry": the
// disabled recorder returns it from every record call, and antecedent
// lists never contain it.
type ID int32

// Kind classifies an entry.
type Kind uint8

// The entry kinds.
const (
	// KindTuple is one version of a tuple materialized at a node. Its
	// single antecedent is the rule firing or message delivery that
	// produced it; no antecedent marks a base fact (injection, topology
	// load, refresh re-insert).
	KindTuple Kind = iota + 1
	// KindRule is one rule firing; its antecedents are the tuple
	// versions the join consumed, in plan-step order.
	KindRule
	// KindMessage is one network delivery: From→Node carrying Label
	// (the predicate), stamped with the traversed link epoch (N) and
	// the logical send order (Seq). Its antecedent is the sender-side
	// rule firing.
	KindMessage
	// KindFault is a fault-injection leaf: link_down, link_up, crash,
	// restart, or partition.
	KindFault
	// KindRetract marks the removal of a tuple version (expiry, link
	// failure, aggregate-group drain). Antecedents: the retracted
	// version, then the causing entry (a KindFault for fault-driven
	// retractions) when known.
	KindRetract
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindRule:
		return "rule"
	case KindMessage:
		return "message"
	case KindFault:
		return "fault"
	case KindRetract:
		return "retract"
	default:
		return "none"
	}
}

// Entry is one provenance record. All strings are interned ids
// resolvable via Recorder.Str; antecedents live in a shared arena
// addressed by (antOff, antLen).
type Entry struct {
	Kind Kind
	T    float64 // simulated time (0 for centralized evaluation)
	Node int32   // owning node (message: destination; fault: near end)
	From int32   // message source / fault far end; 0 when n/a
	Lbl  int32   // predicate, rule label, fault kind, or retract reason
	Tup  int32   // rendered tuple; 0 when n/a
	N    int64   // message: link epoch; link_up: cost; partition: id
	Seq  int64   // message: logical send order

	antOff, antLen int32
}

// Recorder accumulates a provenance graph. The zero-cost disabled form
// is the nil pointer; construct enabled recorders with New.
type Recorder struct {
	strs []string         // interned strings; strs[0] = ""
	ids  map[string]int32 // string -> interned id

	entries []Entry // entries[0] is the zero sentinel (ID 0 = none)
	ants    []ID    // shared antecedent arena

	// cur maps (node, pred, tuple content) to the latest live tuple
	// version, so rule firings can resolve their scanned tuples to
	// entry ids at emit time.
	cur map[string]ID
	// retracted maps a tuple version to the KindRetract entry that
	// removed it — the hook root-cause analysis follows from a stale
	// tuple's lineage to the fault that killed its support.
	retracted map[ID]ID
	faults    []ID // all KindFault entries, in record order

	keyBuf []byte
}

// New returns an empty enabled recorder.
func New() *Recorder {
	return &Recorder{
		strs:      []string{""},
		ids:       map[string]int32{"": 0},
		entries:   make([]Entry, 1),
		cur:       map[string]ID{},
		retracted: map[ID]ID{},
	}
}

// Enabled reports whether the recorder records (nil = disabled).
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) intern(s string) int32 {
	if id, ok := r.ids[s]; ok {
		return id
	}
	id := int32(len(r.strs))
	r.strs = append(r.strs, s)
	r.ids[s] = id
	return id
}

// Str resolves an interned string id.
func (r *Recorder) Str(id int32) string {
	if r == nil || id < 0 || int(id) >= len(r.strs) {
		return ""
	}
	return r.strs[id]
}

// Len returns the number of recorded entries.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries) - 1
}

// Get returns the entry with the given id (the zero Entry for 0 or
// out-of-range ids).
func (r *Recorder) Get(id ID) Entry {
	if r == nil || id <= 0 || int(id) >= len(r.entries) {
		return Entry{}
	}
	return r.entries[id]
}

// Ants returns the antecedent ids of an entry. The slice aliases the
// arena; callers must not mutate it.
func (r *Recorder) Ants(id ID) []ID {
	e := r.Get(id)
	if e.antLen == 0 {
		return nil
	}
	return r.ants[e.antOff : e.antOff+int32(e.antLen)]
}

// RetractionOf returns the KindRetract entry that removed the given
// tuple version, if any.
func (r *Recorder) RetractionOf(id ID) (ID, bool) {
	if r == nil {
		return 0, false
	}
	rid, ok := r.retracted[id]
	return rid, ok
}

func (r *Recorder) append(e Entry, ants []ID) ID {
	e.antOff = int32(len(r.ants))
	for _, a := range ants {
		if a != 0 {
			r.ants = append(r.ants, a)
			e.antLen++
		}
	}
	id := ID(len(r.entries))
	r.entries = append(r.entries, e)
	return id
}

func (r *Recorder) curKey(node, pred string, tup value.Tuple) []byte {
	b := r.keyBuf[:0]
	b = append(b, node...)
	b = append(b, 0)
	b = append(b, pred...)
	b = append(b, 0)
	b = tup.AppendKey(b)
	r.keyBuf = b
	return b
}

// Tuple records a tuple version materialized at node, caused by a rule
// firing or message delivery (cause 0 = base fact), and makes it the
// current version for (node, pred, content).
func (r *Recorder) Tuple(t float64, node, pred string, tup value.Tuple, cause ID) ID {
	if r == nil {
		return 0
	}
	id := r.append(Entry{
		Kind: KindTuple, T: t,
		Node: r.intern(node), Lbl: r.intern(pred), Tup: r.intern(tup.String()),
	}, []ID{cause})
	r.cur[string(r.curKey(node, pred, tup))] = id
	return id
}

// Rule records one rule firing at node with the given antecedent tuple
// versions (zeros are skipped). The ants slice is copied into the
// arena; callers may reuse it.
func (r *Recorder) Rule(t float64, node, label string, ants []ID) ID {
	if r == nil {
		return 0
	}
	return r.append(Entry{
		Kind: KindRule, T: t, Node: r.intern(node), Lbl: r.intern(label),
	}, ants)
}

// Message records one delivery of pred from src to dst across a link of
// the given epoch, with the scheduler's logical send order. cause is
// the sender-side firing (or tuple version) that emitted the message.
func (r *Recorder) Message(t float64, src, dst, pred string, epoch int, seq int64, cause ID) ID {
	if r == nil {
		return 0
	}
	return r.append(Entry{
		Kind: KindMessage, T: t,
		Node: r.intern(dst), From: r.intern(src), Lbl: r.intern(pred),
		N: int64(epoch), Seq: seq,
	}, []ID{cause})
}

// Fault records a fault-injection leaf: kind is "link_down", "link_up",
// "crash", "restart", or "partition"; a and b are the affected node(s),
// n carries the kind-specific payload (link cost, partition id).
func (r *Recorder) Fault(t float64, kind, a, b string, n int64) ID {
	if r == nil {
		return 0
	}
	id := r.append(Entry{
		Kind: KindFault, T: t,
		Node: r.intern(a), From: r.intern(b), Lbl: r.intern(kind), N: n,
	}, nil)
	r.faults = append(r.faults, id)
	return id
}

// Retract records the removal of the current version of tup at node.
// reason is "expired", "link_down", "agg_empty", etc.; cause, when
// nonzero, is the entry that forced the removal (a fault). It returns 0
// when no version of the tuple was on record.
func (r *Recorder) Retract(t float64, node, pred string, tup value.Tuple, reason string, cause ID) ID {
	if r == nil {
		return 0
	}
	k := string(r.curKey(node, pred, tup))
	victim, ok := r.cur[k]
	if !ok {
		return 0
	}
	delete(r.cur, k)
	id := r.append(Entry{
		Kind: KindRetract, T: t,
		Node: r.intern(node), Lbl: r.intern(reason), Tup: r.Get(victim).Tup,
	}, []ID{victim, cause})
	r.retracted[victim] = id
	return id
}

// Drop forgets the current version of tup at node without recording a
// retraction — key replacement, where the superseding version's own
// Tuple call tells the story.
func (r *Recorder) Drop(node, pred string, tup value.Tuple) {
	if r == nil {
		return
	}
	delete(r.cur, string(r.curKey(node, pred, tup)))
}

// DropNode forgets every current tuple version at node (crash: the
// node's tables are wiped wholesale).
func (r *Recorder) DropNode(node string) {
	if r == nil {
		return
	}
	prefix := node + "\x00"
	for k := range r.cur {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(r.cur, k)
		}
	}
}

// Current returns the live version of tup at node, or 0. The lookup
// does not allocate (reusable key buffer, map probe on string(b)).
func (r *Recorder) Current(node, pred string, tup value.Tuple) ID {
	if r == nil {
		return 0
	}
	return r.cur[string(r.curKey(node, pred, tup))]
}

// Lineage returns id plus every entry transitively reachable through
// antecedent edges, deduplicated, in BFS order from id. max bounds the
// result (<=0: no bound).
func (r *Recorder) Lineage(id ID, max int) []ID {
	if r == nil || id == 0 {
		return nil
	}
	seen := map[ID]bool{id: true}
	out := []ID{id}
	for i := 0; i < len(out); i++ {
		if max > 0 && len(out) >= max {
			break
		}
		for _, a := range r.Ants(out[i]) {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// FaultsOn returns the fault entries implicated in a lineage: faults
// that retracted a lineage member's support (via KindRetract causes)
// and faults whose endpoints match a link crossed by a lineage message
// or a node a lineage entry lives on (crash/restart only — a link
// fault on an unrelated node pair is not implicated by co-location).
// The result is deduplicated, in recorder order.
func (r *Recorder) FaultsOn(lineage []ID) []ID {
	if r == nil {
		return nil
	}
	want := map[ID]bool{}
	nodes := map[int32]bool{}
	links := map[[2]int32]bool{}
	for _, id := range lineage {
		e := r.Get(id)
		if e.Node != 0 {
			nodes[e.Node] = true
		}
		if e.Kind == KindMessage && e.From != 0 {
			a, b := e.From, e.Node
			if a > b {
				a, b = b, a
			}
			links[[2]int32{a, b}] = true
		}
		if rid, ok := r.retracted[id]; ok {
			for _, a := range r.Ants(rid) {
				if r.Get(a).Kind == KindFault {
					want[a] = true
				}
			}
		}
	}
	var out []ID
	for _, fid := range r.faults {
		f := r.Get(fid)
		kind := r.Str(f.Lbl)
		implicated := want[fid]
		if !implicated {
			switch kind {
			case "crash", "restart":
				implicated = nodes[f.Node]
			case "link_down", "link_up":
				a, b := f.Node, f.From
				if a > b {
					a, b = b, a
				}
				implicated = links[[2]int32{a, b}]
			}
		}
		if implicated {
			out = append(out, fid)
		}
	}
	return out
}

// RecordMetrics publishes the recorder's totals into an obs collector
// under component "prov", so EXPLAIN/metrics renderers show provenance
// volume next to the evaluation counters it annotates.
func (r *Recorder) RecordMetrics(col *obs.Collector) {
	if r == nil || col == nil {
		return
	}
	counts := map[Kind]int64{}
	for _, e := range r.entries[1:] {
		counts[e.Kind]++
	}
	for _, k := range []Kind{KindTuple, KindRule, KindMessage, KindFault, KindRetract} {
		col.Counter("prov", "entries", k.String()).Add(counts[k])
	}
	col.Counter("prov", "interned_strings", "").Add(int64(len(r.strs) - 1))
	col.Counter("prov", "antecedent_edges", "").Add(int64(len(r.ants)))
}
