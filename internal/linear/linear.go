// Package linear gives NDlog programs the linear-logic semantics sketched
// in §4.2 of the paper: facts are resources in a multiset state, rules are
// multiset-rewriting transitions that consume the linear (soft-state)
// facts they match and produce their heads, and materialized tables appear
// as keyed facts whose production replaces the previous version — "a set
// of transition rules that determine the updates of the underlying routing
// tables" (§4.3). The resulting transition system plugs directly into
// internal/modelcheck (arcs 6 and 8), which is how E4 finds the
// count-to-infinity loop of distance-vector routing with a counterexample
// trace.
package linear

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/modelcheck"
	"repro/internal/ndlog"
	"repro/internal/value"
)

// Fact is a ground atom.
type Fact struct {
	Pred string
	Args value.Tuple
}

// Key canonically encodes the fact.
func (f Fact) Key() string { return f.Pred + f.Args.Key() }

func (f Fact) String() string { return f.Pred + f.Args.String() }

// F builds a fact.
func F(pred string, args ...value.V) Fact {
	return Fact{Pred: pred, Args: args}
}

// Rule is a multiset-rewriting transition: the positive body atoms match
// facts in the state (consuming those whose predicate is linear),
// negative atoms require absence, conditions and assignments evaluate
// under the binding, and the heads are produced.
type Rule struct {
	Label string
	Body  []ndlog.Literal
	Heads []ndlog.Atom
}

// System is a multiset-rewriting system over a fact vocabulary.
type System struct {
	Rules []*Rule
	// Linear predicates are consumed when matched (soft state / events /
	// messages); all others are read-only persistent facts.
	Linear map[string]bool
	// Keys assigns primary keys (0-based columns) to predicates: producing
	// a keyed fact replaces the existing fact with the same key — NDlog's
	// materialized-table update semantics inside the transition system.
	Keys map[string][]int
	// Init is the initial multiset.
	Init []Fact
}

// Validate checks rule well-formedness: every head variable must be bound
// by the body.
func (s *System) Validate() error {
	for _, r := range s.Rules {
		bound := map[string]bool{}
		for _, l := range r.Body {
			if l.Atom != nil && !l.Neg {
				for v := range ndlog.AtomVars(l.Atom) {
					bound[v] = true
				}
			}
			if l.Assign {
				if be, ok := l.Expr.(ndlog.BinE); ok {
					if lv, ok := be.L.(ndlog.VarE); ok {
						bound[lv.Name] = true
					}
				}
			}
		}
		for _, h := range r.Heads {
			for v := range ndlog.AtomVars(&h) {
				if !bound[v] {
					return fmt.Errorf("linear: rule %s: head variable %s unbound", r.Label, v)
				}
			}
		}
	}
	return nil
}

// state is an immutable multiset snapshot.
type state struct {
	// facts maps fact key to (fact, multiplicity).
	facts map[string]entry
	// fp is the commutative multiset fingerprint, maintained incrementally
	// on every add/remove: the sum over entries of a finalized
	// per-(fact,multiplicity) hash. Summation is order-free, so equal
	// multisets always fingerprint equal regardless of rule-firing order.
	fp uint64
}

type entry struct {
	fact Fact
	n    int
}

func newState(facts []Fact) *state {
	s := &state{facts: map[string]entry{}}
	for _, f := range facts {
		s.add(f)
	}
	return s
}

// factKeyHash hashes a fact's canonical key.
func factKeyHash(k string) uint64 { return uint64(modelcheck.NewFP().String(k)) }

// contrib is the state-fingerprint addend for one entry. Each
// (hash, multiplicity) pair is scrambled through Mix64 before summing so
// the commutative combination does not cancel structure.
func contrib(h uint64, n int) uint64 {
	return modelcheck.Mix64(h + uint64(n)*0x9e3779b97f4a7c15)
}

// bump adjusts fp for fact key k's multiplicity changing from → to.
func (s *state) bump(k string, from, to int) {
	h := factKeyHash(k)
	if from > 0 {
		s.fp -= contrib(h, from)
	}
	if to > 0 {
		s.fp += contrib(h, to)
	}
}

// Key canonically encodes the multiset. It is computed on demand and not
// cached: the checker identifies states by Fingerprint, so successor
// states usually never need a key, and the absence of a cache keeps the
// state immutable under the parallel checker's concurrent Next calls.
func (s *state) Key() string {
	keys := make([]string, 0, len(s.facts))
	for k, e := range s.facts {
		keys = append(keys, fmt.Sprintf("%s*%d", k, e.n))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// Fingerprint implements modelcheck.Fingerprinter.
func (s *state) Fingerprint() uint64 { return s.fp }

func (s *state) Display() string {
	var fs []string
	for _, e := range s.facts {
		str := e.fact.String()
		if e.n > 1 {
			str = fmt.Sprintf("%s×%d", str, e.n)
		}
		fs = append(fs, str)
	}
	sort.Strings(fs)
	return strings.Join(fs, " ")
}

// clone deep-copies the multiset (facts themselves are immutable).
func (s *state) clone() *state {
	out := &state{facts: make(map[string]entry, len(s.facts)), fp: s.fp}
	for k, e := range s.facts {
		out.facts[k] = e
	}
	return out
}

func (s *state) add(f Fact) {
	k := f.Key()
	e := s.facts[k]
	s.bump(k, e.n, e.n+1)
	e.fact = f
	e.n++
	s.facts[k] = e
}

func (s *state) remove(f Fact) {
	k := f.Key()
	e, ok := s.facts[k]
	if !ok {
		return
	}
	s.bump(k, e.n, e.n-1)
	e.n--
	if e.n <= 0 {
		delete(s.facts, k)
	} else {
		s.facts[k] = e
	}
}

// Facts lists the state's facts (with multiplicity) of one predicate.
func (s *state) factsOf(pred string) []Fact {
	var out []Fact
	for _, e := range s.facts {
		if e.fact.Pred == pred {
			out = append(out, e.fact)
		}
	}
	// Deterministic order for reproducible exploration.
	sort.Slice(out, func(i, j int) bool { return out[i].Args.Compare(out[j].Args) < 0 })
	return out
}

// TS adapts the system to the model checker.
type TS struct {
	Sys *System
}

// Initial returns the singleton initial state.
func (t TS) Initial() []modelcheck.State {
	return []modelcheck.State{newState(t.Sys.Init)}
}

// Next returns every state reachable by firing one rule under one binding.
// Firings that do not change the state are dropped (quiescence is visible
// as the absence of successors).
func (t TS) Next(ms modelcheck.State) []modelcheck.State {
	cur := ms.(*state)
	var out []modelcheck.State
	seen := map[uint64]bool{}
	for _, r := range t.Sys.Rules {
		t.fire(cur, r, func(next *state) {
			// Fingerprint comparison replaces the old key-string dedup:
			// no-op firings and duplicate successors are dropped without
			// materializing canonical keys.
			if next.fp == cur.fp || seen[next.fp] {
				return
			}
			seen[next.fp] = true
			out = append(out, next)
		})
	}
	return out
}

// fire enumerates the bindings of r against cur and emits each successor.
func (t TS) fire(cur *state, r *Rule, emit func(*state)) {
	env := map[string]value.V{}
	var matched []Fact // positive atoms matched, in body order
	var walk func(i int)
	walk = func(i int) {
		if i == len(r.Body) {
			t.apply(cur, r, env, matched, emit)
			return
		}
		l := r.Body[i]
		switch {
		case l.Atom != nil && !l.Neg:
			for _, f := range cur.factsOf(l.Atom.Pred) {
				// Linear facts cannot be matched twice by the same firing
				// beyond their multiplicity.
				if t.Sys.Linear[l.Atom.Pred] && exceedsMultiplicity(cur, matched, f) {
					continue
				}
				bound, ok := ndlog.MatchAtom(l.Atom, f.Args, env)
				if !ok {
					continue
				}
				matched = append(matched, f)
				walk(i + 1)
				matched = matched[:len(matched)-1]
				for _, name := range bound {
					delete(env, name)
				}
			}
		case l.Atom != nil && l.Neg:
			for _, f := range cur.factsOf(l.Atom.Pred) {
				if bound, ok := ndlog.MatchAtom(l.Atom, f.Args, env); ok {
					for _, name := range bound {
						delete(env, name)
					}
					return // negation fails: a matching fact exists
				}
			}
			walk(i + 1)
		case l.Assign:
			be := l.Expr.(ndlog.BinE)
			name := be.L.(ndlog.VarE).Name
			v, err := ndlog.EvalExpr(be.R, env)
			if err != nil {
				return
			}
			if old, ok := env[name]; ok {
				if old.Equal(v) {
					walk(i + 1)
				}
				return
			}
			env[name] = v
			walk(i + 1)
			delete(env, name)
		default:
			v, err := ndlog.EvalExpr(l.Expr, env)
			if err != nil || !v.True() {
				return
			}
			walk(i + 1)
		}
	}
	walk(0)
}

// exceedsMultiplicity reports whether matching f again would exceed its
// multiplicity in cur given the already-matched facts.
func exceedsMultiplicity(cur *state, matched []Fact, f Fact) bool {
	k := f.Key()
	used := 0
	for _, m := range matched {
		if m.Key() == k {
			used++
		}
	}
	return used >= cur.facts[k].n
}

// apply constructs the successor state for a complete binding.
func (t TS) apply(cur *state, r *Rule, env map[string]value.V, matched []Fact, emit func(*state)) {
	next := cur.clone()
	// Consume linear matches.
	for _, f := range matched {
		if t.Sys.Linear[f.Pred] {
			next.remove(f)
		}
	}
	// Produce heads.
	for _, h := range r.Heads {
		tup := make(value.Tuple, len(h.Args))
		for i, arg := range h.Args {
			v, err := ndlog.EvalExpr(arg, env)
			if err != nil {
				return
			}
			tup[i] = v
		}
		f := Fact{Pred: h.Pred, Args: tup}
		// Keyed production replaces the previous version.
		if keys, ok := t.Sys.Keys[h.Pred]; ok {
			removeByKey(next, h.Pred, keys, tup)
		}
		// Persistent facts have set semantics (!A is idempotent); only
		// linear facts accumulate multiplicity.
		if !t.Sys.Linear[h.Pred] {
			if _, present := next.facts[f.Key()]; present {
				continue
			}
		}
		next.add(f)
	}
	emit(next)
}

func removeByKey(s *state, pred string, keys []int, tup value.Tuple) {
	for k, e := range s.facts {
		if e.fact.Pred != pred {
			continue
		}
		same := true
		for _, c := range keys {
			if c >= len(e.fact.Args) || c >= len(tup) || !e.fact.Args[c].Equal(tup[c]) {
				same = false
				break
			}
		}
		if same {
			s.bump(k, e.n, 0)
			delete(s.facts, k)
		}
	}
}
