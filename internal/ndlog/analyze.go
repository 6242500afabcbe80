package ndlog

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// Analysis is the result of static analysis over an NDlog program. It is
// consumed by the Datalog engine (rule safety and stratification), the
// distributed planner (location analysis), and the translator to logic.
type Analysis struct {
	Prog *Program

	// Arity maps each predicate to its argument count.
	Arity map[string]int
	// LocIndex maps each predicate to the position of its location
	// argument (-1 for location-free predicates, which can occur in purely
	// centralized programs).
	LocIndex map[string]int
	// Base marks extensional predicates: those that never appear in a rule
	// head (they are populated by facts or external events).
	Base map[string]bool
	// Derived marks intensional predicates (appear in some head).
	Derived map[string]bool

	// StratumOf assigns each predicate its stratum; rules of stratum i may
	// negate or aggregate only predicates of strata < i.
	StratumOf map[string]int
	// Strata lists predicates per stratum, lowest first.
	Strata [][]string
	// AggInCycle is true when some aggregate lies on a recursive cycle
	// (e.g. BGP: route selection feeds route advertisement). Such programs
	// have no stratified model and are rejected by the centralized engine,
	// but execute operationally under the event-driven distributed runtime
	// — exactly P2's position for routing protocols.
	AggInCycle bool
	// LocVars lists, per rule, the distinct location variables of its body
	// atoms, in first-appearance order. A rule with more than one location
	// variable requires the distributed localization rewrite.
	LocVars map[*Rule][]string

	// Plans holds the compiled join plans of every rule (full, per-delta,
	// and seeded aggregate variants), shared by the centralized engine and
	// the distributed runtime.
	Plans map[*Rule]*RulePlans
}

// Analyze performs safety, schema, aggregate, location, and stratification
// analysis on prog. On success the bodies of prog's rules are normalized:
// literals are reordered into a safe evaluation order and "=" conditions
// whose left side is an unbound variable are marked as assignments.
func Analyze(prog *Program) (*Analysis, error) {
	a := &Analysis{
		Prog:      prog,
		Arity:     map[string]int{},
		LocIndex:  map[string]int{},
		Base:      map[string]bool{},
		Derived:   map[string]bool{},
		StratumOf: map[string]int{},
		LocVars:   map[*Rule][]string{},
	}
	if err := a.checkSchemas(); err != nil {
		return nil, err
	}
	for _, r := range prog.Rules {
		if err := a.normalizeRule(r); err != nil {
			return nil, err
		}
		if err := a.checkAggregates(r); err != nil {
			return nil, err
		}
		if err := a.checkLocations(r); err != nil {
			return nil, err
		}
	}
	if err := a.stratify(); err != nil {
		return nil, err
	}
	if err := a.buildPlans(); err != nil {
		return nil, err
	}
	return a, nil
}

// checkSchemas verifies that every predicate is used with one arity and
// one location-argument position throughout the program.
func (a *Analysis) checkSchemas() error {
	see := func(pred string, arity, loc int, where string) error {
		if old, ok := a.Arity[pred]; ok {
			if old != arity {
				return fmt.Errorf("ndlog: %s: predicate %s used with arity %d and %d", where, pred, old, arity)
			}
			if prev := a.LocIndex[pred]; prev != loc && loc != -1 && prev != -1 {
				return fmt.Errorf("ndlog: %s: predicate %s has location argument at position %d and %d", where, pred, prev+1, loc+1)
			}
			if loc != -1 && a.LocIndex[pred] == -1 {
				a.LocIndex[pred] = loc
			}
			return nil
		}
		a.Arity[pred] = arity
		a.LocIndex[pred] = loc
		return nil
	}
	for _, r := range a.Prog.Rules {
		if err := see(r.Head.Pred, len(r.Head.Args), r.Head.Loc, "rule "+r.Label); err != nil {
			return err
		}
		a.Derived[r.Head.Pred] = true
		for _, l := range r.Body {
			if l.Atom == nil {
				continue
			}
			if err := see(l.Atom.Pred, len(l.Atom.Args), l.Atom.Loc, "rule "+r.Label); err != nil {
				return err
			}
		}
	}
	for _, f := range a.Prog.Facts {
		if err := see(f.Pred, len(f.Args), f.Loc, "fact "+f.Pred); err != nil {
			return err
		}
	}
	for pred := range a.Arity {
		if !a.Derived[pred] {
			a.Base[pred] = true
		}
	}
	// Materialize declarations must reference known predicates with sane
	// keys.
	for _, m := range a.Prog.Materialized {
		arity, ok := a.Arity[m.Pred]
		if !ok {
			// Declaring storage for a predicate used by no rule is legal
			// (it may be populated and queried externally); record it.
			continue
		}
		for _, k := range m.Keys {
			if k > arity {
				return fmt.Errorf("ndlog: materialize(%s): key column %d exceeds arity %d", m.Pred, k, arity)
			}
		}
	}
	return nil
}

// exprVars returns the variables of e.
func exprVars(e Expr) map[string]bool {
	set := map[string]bool{}
	Vars(e, set)
	return set
}

func allBound(set map[string]bool, bound map[string]bool) bool {
	for v := range set {
		if !bound[v] {
			return false
		}
	}
	return true
}

// normalizeRule reorders r's body into a safe evaluation order and marks
// assignments, erroring if no safe order exists.
func (a *Analysis) normalizeRule(r *Rule) error {
	bound := map[string]bool{}
	remaining := append([]Literal(nil), r.Body...)
	var ordered []Literal

	bindAtomVars := func(atom *Atom) {
		for _, arg := range atom.Args {
			if v, ok := arg.(VarE); ok {
				bound[v.Name] = true
			}
		}
	}

	for len(remaining) > 0 {
		progress := false
		for i := 0; i < len(remaining); i++ {
			l := remaining[i]
			take := func() {
				ordered = append(ordered, l)
				remaining = append(remaining[:i], remaining[i+1:]...)
				progress = true
			}
			if l.Atom != nil && !l.Neg {
				// A positive atom is ready when its non-variable arguments
				// (computed matches) use only bound variables.
				ready := true
				for _, arg := range l.Atom.Args {
					if _, isVar := arg.(VarE); isVar {
						continue
					}
					if !allBound(exprVars(arg), bound) {
						ready = false
						break
					}
				}
				if ready {
					bindAtomVars(l.Atom)
					take()
					break
				}
				continue
			}
			if l.Atom != nil && l.Neg {
				// Negated atoms require all their variables bound
				// (safe negation).
				if allBound(AtomVars(l.Atom), bound) {
					take()
					break
				}
				continue
			}
			// Expression literal: assignment or condition.
			if be, ok := l.Expr.(BinE); ok && be.Op == "=" {
				if lv, ok := be.L.(VarE); ok && !bound[lv.Name] {
					if allBound(exprVars(be.R), bound) {
						l.Assign = true
						bound[lv.Name] = true
						take()
						break
					}
					continue
				}
				if rv, ok := be.R.(VarE); ok && !bound[rv.Name] {
					// Flipped assignment: expr = X.
					if allBound(exprVars(be.L), bound) {
						l.Expr = BinE{Op: "=", L: rv, R: be.L}
						l.Assign = true
						bound[rv.Name] = true
						take()
						break
					}
					continue
				}
			}
			if allBound(exprVars(l.Expr), bound) {
				take()
				break
			}
		}
		if !progress {
			return fmt.Errorf("ndlog: rule %s is unsafe: cannot order body literals %v with bound variables %v",
				r.Label, remaining, sortedKeys(bound))
		}
	}

	// All head variables must be bound.
	for _, arg := range r.Head.Args {
		if agg, ok := arg.(AggE); ok {
			if agg.Arg != "" && !bound[agg.Arg] {
				return fmt.Errorf("ndlog: rule %s: aggregate variable %s is unbound", r.Label, agg.Arg)
			}
			continue
		}
		if !allBound(exprVars(arg), bound) {
			return fmt.Errorf("ndlog: rule %s: head argument %s has unbound variables", r.Label, arg)
		}
	}
	r.Body = ordered
	return nil
}

// checkAggregates enforces that aggregates appear only in heads, one per
// rule.
func (a *Analysis) checkAggregates(r *Rule) error {
	count := 0
	for _, arg := range r.Head.Args {
		if _, ok := arg.(AggE); ok {
			count++
		}
	}
	if count > 1 {
		return fmt.Errorf("ndlog: rule %s: multiple aggregates in head", r.Label)
	}
	for _, l := range r.Body {
		if l.Atom == nil {
			if be, ok := l.Expr.(BinE); ok {
				if _, isAgg := be.L.(AggE); isAgg {
					return fmt.Errorf("ndlog: rule %s: aggregate in body", r.Label)
				}
				if _, isAgg := be.R.(AggE); isAgg {
					return fmt.Errorf("ndlog: rule %s: aggregate in body", r.Label)
				}
			}
			continue
		}
		for _, arg := range l.Atom.Args {
			if _, ok := arg.(AggE); ok {
				return fmt.Errorf("ndlog: rule %s: aggregate in body atom %s", r.Label, l.Atom.Pred)
			}
		}
	}
	if r.Delete && count > 0 {
		return fmt.Errorf("ndlog: rule %s: aggregates not allowed in delete rules", r.Label)
	}
	return nil
}

// checkLocations validates the link-restriction needed for distributed
// execution (§2.2): the body atoms of a rule may span at most two
// locations, and if they span two, some body atom must mention both
// location variables (serving as the communication link).
func (a *Analysis) checkLocations(r *Rule) error {
	var locVars []string
	seen := map[string]bool{}
	locOf := func(atom *Atom) (string, bool) {
		if atom.Loc < 0 || atom.Loc >= len(atom.Args) {
			return "", false
		}
		if v, ok := atom.Args[atom.Loc].(VarE); ok {
			return v.Name, true
		}
		return "", false
	}
	for _, l := range r.Body {
		if l.Atom == nil {
			continue
		}
		if v, ok := locOf(l.Atom); ok && !seen[v] {
			seen[v] = true
			locVars = append(locVars, v)
		}
	}
	a.LocVars[r] = locVars
	if len(locVars) > 2 {
		return fmt.Errorf("ndlog: rule %s: body spans %d locations %v; at most two are supported", r.Label, len(locVars), locVars)
	}
	if len(locVars) == 2 {
		// Some body atom must mention both location variables.
		ok := false
		for _, l := range r.Body {
			if l.Atom == nil {
				continue
			}
			vars := AtomVars(l.Atom)
			if vars[locVars[0]] && vars[locVars[1]] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("ndlog: rule %s: no body atom links locations %s and %s", r.Label, locVars[0], locVars[1])
		}
	}
	// The head location variable must be bound by the body (checked in
	// normalizeRule) — additionally, warn-level check: it should be one of
	// the body locations or a variable of a body atom, which normalizeRule
	// already guarantees via safety.
	return nil
}

// stratify computes predicate strata. Negated dependencies must cross
// stratum boundaries; aggregated dependencies should, but an aggregate on
// a recursive cycle (BGP-style selection-feeds-advertisement) is tolerated
// with AggInCycle set — the centralized engine rejects such programs, the
// event-driven distributed runtime executes them.
func (a *Analysis) stratify() error {
	type edge struct {
		from, to string
		neg, agg bool
	}
	var edges []edge
	preds := map[string]bool{}
	for p := range a.Arity {
		preds[p] = true
	}
	for _, r := range a.Prog.Rules {
		_, aggIdx := r.Head.HeadAgg()
		hasAgg := aggIdx >= 0
		for _, l := range r.Body {
			if l.Atom == nil {
				continue
			}
			// Delete rules behave like aggregates for stratification: they
			// should read lower strata, but a delete that references its
			// own head (retraction) is tolerated — the engine applies
			// deletions after the stratum fixpoint, and the linear-logic
			// semantics consumes the head directly.
			edges = append(edges, edge{
				from: l.Atom.Pred,
				to:   r.Head.Pred,
				neg:  l.Neg,
				agg:  hasAgg || r.Delete,
			})
		}
	}

	// Longest-path stratification by iteration (Bellman-Ford style); a
	// cycle through a strict edge makes strata diverge.
	solve := func(strictAgg bool) (map[string]int, bool) {
		strata := map[string]int{}
		for p := range preds {
			strata[p] = 0
		}
		n := len(preds)
		for iter := 0; ; iter++ {
			changed := false
			for _, e := range edges {
				min := strata[e.from]
				if e.neg || (strictAgg && e.agg) {
					min++
				}
				if strata[e.to] < min {
					strata[e.to] = min
					changed = true
				}
			}
			if !changed {
				return strata, true
			}
			if iter > n+1 {
				return nil, false
			}
		}
	}

	strata, ok := solve(true)
	if !ok {
		// Retry with aggregate edges non-strict: succeeds iff the
		// divergence came from aggregation, not negation.
		strata, ok = solve(false)
		if !ok {
			return fmt.Errorf("ndlog: program is not stratifiable (recursion through negation)")
		}
		a.AggInCycle = true
	}
	a.StratumOf = strata

	max := 0
	for _, s := range a.StratumOf {
		if s > max {
			max = s
		}
	}
	a.Strata = make([][]string, max+1)
	var names []string
	for p := range preds {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		s := a.StratumOf[p]
		a.Strata[s] = append(a.Strata[s], p)
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EvalExpr evaluates an NDlog expression under a variable binding.
func EvalExpr(e Expr, env map[string]value.V) (value.V, error) {
	switch x := e.(type) {
	case LitE:
		return x.Val, nil
	case VarE:
		v, ok := env[x.Name]
		if !ok {
			return value.V{}, fmt.Errorf("ndlog: unbound variable %s", x.Name)
		}
		return v, nil
	case CallE:
		args := make([]value.V, len(x.Args))
		for i, a := range x.Args {
			v, err := EvalExpr(a, env)
			if err != nil {
				return value.V{}, err
			}
			args[i] = v
		}
		return value.Apply(x.Fn, args)
	case BinE:
		op := x.Op
		if op == "=" {
			op = "=="
		}
		l, err := EvalExpr(x.L, env)
		if err != nil {
			return value.V{}, err
		}
		r, err := EvalExpr(x.R, env)
		if err != nil {
			return value.V{}, err
		}
		return value.ApplyBinary(op, l, r)
	case AggE:
		return value.V{}, fmt.Errorf("ndlog: aggregate %s evaluated as expression", x)
	}
	return value.V{}, fmt.Errorf("ndlog: unknown expression")
}

// MatchAtom matches a tuple against an atom's argument patterns, binding
// the atom's unbound variables into env; it returns the names it bound
// and whether the tuple matched. A tuple of the wrong arity, or an
// argument expression that cannot be evaluated, does not match. On
// failure every binding it made is undone; on success the caller undoes
// them. This is the interpreted matcher for code that matches one tuple
// outside any compiled plan.
func MatchAtom(atom *Atom, tup value.Tuple, env map[string]value.V) ([]string, bool) {
	if len(tup) != len(atom.Args) {
		return nil, false
	}
	var bound []string
	fail := func() ([]string, bool) {
		for _, name := range bound {
			delete(env, name)
		}
		return nil, false
	}
	for i, arg := range atom.Args {
		switch x := arg.(type) {
		case VarE:
			if v, ok := env[x.Name]; ok {
				if !v.Equal(tup[i]) {
					return fail()
				}
			} else {
				env[x.Name] = tup[i]
				bound = append(bound, x.Name)
			}
		case LitE:
			if !x.Val.Equal(tup[i]) {
				return fail()
			}
		default:
			v, err := EvalExpr(arg, env)
			if err != nil || !v.Equal(tup[i]) {
				return fail()
			}
		}
	}
	return bound, true
}
