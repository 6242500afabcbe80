package dist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ndlog"
	"repro/internal/prov"
	"repro/internal/value"
)

// WhyNot explains why pred(tup) is not currently materialized anywhere
// in the network: for every rule that could derive it, it unifies the
// head against the tuple and runs an interpreted backtracking search
// over the rule body at each node, reporting either full derivability
// (the tuple is in flight or superseded) or the deepest point of
// failure — a missing antecedent, a blocking negation, or a false
// condition. It also reports the current occupant of the tuple's
// primary key and any recorded retraction of the exact tuple.
func (n *Network) WhyNot(pred string, tup value.Tuple) string {
	var b strings.Builder
	fmt.Fprintf(&b, "why-not %s%s:\n", pred, tup)

	for _, id := range n.topo.Nodes {
		nd := n.nodes[id]
		if t, ok := nd.tables[pred]; ok && t.Contains(tup) {
			fmt.Fprintf(&b, "  %s%s IS present at %s — use `why` for its derivation\n", pred, tup, id)
			return b.String()
		}
	}

	n.whyNotKeyOccupant(&b, pred, tup)
	n.whyNotRetraction(&b, pred, tup)

	candidates := 0
	for _, r := range n.prog.Rules {
		if r.Head.Pred != pred || r.Delete {
			continue
		}
		candidates++
		n.whyNotRule(&b, r, tup)
	}
	if candidates == 0 {
		fmt.Fprintf(&b, "  no rule derives %s: it can only be injected as a base fact\n", pred)
	}
	return b.String()
}

// whyNotKeyOccupant reports a different tuple currently holding the
// target's primary key (key replacement is the usual reason a specific
// route value is absent).
func (n *Network) whyNotKeyOccupant(b *strings.Builder, pred string, tup value.Tuple) {
	for _, id := range n.topo.Nodes {
		t := n.nodes[id].tables[pred]
		if t == nil || len(tup) != t.Arity || len(t.Keys) == 0 {
			continue
		}
		if cur, ok := t.Get(t.KeyOf(tup)); ok && !cur.Equal(tup) {
			fmt.Fprintf(b, "  its primary key is held by %s%s at %s (key replacement)\n", pred, cur, id)
		}
	}
}

// whyNotRetraction reports a recorded retraction of the exact tuple.
func (n *Network) whyNotRetraction(b *strings.Builder, pred string, tup value.Tuple) {
	if !n.prov.Enabled() {
		return
	}
	want := tup.String()
	for i := 1; i <= n.prov.Len(); i++ {
		id := prov.ID(i)
		e := n.prov.Get(id)
		if e.Kind != prov.KindRetract || n.prov.Str(e.Tup) != want {
			continue
		}
		// The retraction's victim names the predicate via its own entry.
		ants := n.prov.Ants(id)
		if len(ants) == 0 || n.prov.Str(n.prov.Get(ants[0]).Lbl) != pred {
			continue
		}
		fmt.Fprintf(b, "  it existed at %s and was retracted (%s) at t=%s\n",
			n.prov.Str(e.Node), n.prov.Str(e.Lbl), fmtWhyT(e.T))
	}
}

// whyNotFailure tracks the deepest body-literal failure seen for a rule
// across nodes and backtracking branches.
type whyNotFailure struct {
	depth  int
	node   string
	reason string
}

func (n *Network) whyNotRule(b *strings.Builder, r *ndlog.Rule, tup value.Tuple) {
	env, ok := unifyHead(r, tup)
	if !ok {
		return // head cannot produce this tuple shape
	}
	fail := &whyNotFailure{depth: -1}
	for _, id := range n.topo.Nodes {
		nd := n.nodes[id]
		if nd.down {
			continue
		}
		// Reset env to the head bindings for each node.
		envCopy := make(map[string]value.V, len(env))
		for k, v := range env {
			envCopy[k] = v
		}
		if n.searchBody(nd, r, tup, 0, envCopy, fail) {
			fmt.Fprintf(b, "  rule %s CAN derive it at %s — the tuple is in flight, superseded, or awaiting refresh\n", r.Label, id)
			return
		}
	}
	if fail.depth >= 0 {
		fmt.Fprintf(b, "  rule %s @%s: %s\n", r.Label, fail.node, fail.reason)
	} else {
		fmt.Fprintf(b, "  rule %s: body search found no starting match at any node\n", r.Label)
	}
}

// unifyHead binds the rule's head variables against the target tuple.
// Aggregate and computed head arguments unify as wildcards (checked
// after a body match).
func unifyHead(r *ndlog.Rule, tup value.Tuple) (map[string]value.V, bool) {
	if len(r.Head.Args) != len(tup) {
		return nil, false
	}
	env := map[string]value.V{}
	for i, arg := range r.Head.Args {
		switch x := arg.(type) {
		case ndlog.VarE:
			if v, bound := env[x.Name]; bound {
				if !v.Equal(tup[i]) {
					return nil, false
				}
			} else {
				env[x.Name] = tup[i]
			}
		case ndlog.LitE:
			if !x.Val.Equal(tup[i]) {
				return nil, false
			}
		}
	}
	return env, true
}

// searchBody backtracks over the rule body at node nd, recording the
// deepest failure. At the leaf it checks the computed head arguments
// against the target tuple.
func (n *Network) searchBody(nd *Node, r *ndlog.Rule, tup value.Tuple, i int, env map[string]value.V, fail *whyNotFailure) bool {
	note := func(reason string) {
		if i > fail.depth {
			fail.depth, fail.node, fail.reason = i, nd.ID, reason
		}
	}
	if i == len(r.Body) {
		for hi, arg := range r.Head.Args {
			if _, isAgg := arg.(ndlog.AggE); isAgg {
				continue
			}
			v, err := ndlog.EvalExpr(arg, env)
			if err != nil {
				continue
			}
			if !v.Equal(tup[hi]) {
				note(fmt.Sprintf("body matches but head argument %d evaluates to %v, not %v (a different derivation)", hi+1, v, tup[hi]))
				return false
			}
		}
		if agg, _ := r.Head.HeadAgg(); agg != nil {
			// The group is non-empty, so the aggregate exists with some
			// other value; the key-occupant line already reports which.
			note("the aggregate group is non-empty but yields a different value")
			return false
		}
		return true
	}
	l := r.Body[i]
	switch {
	case l.Atom != nil && !l.Neg:
		t := nd.tables[l.Atom.Pred]
		if t == nil || t.Len() == 0 {
			note(fmt.Sprintf("missing antecedent %s: no %s tuples at %s", l.Atom, l.Atom.Pred, nd.ID))
			return false
		}
		matched := false
		for _, cand := range t.Sorted() {
			bound, ok := ndlog.MatchAtom(l.Atom, cand, env)
			if !ok {
				continue
			}
			matched = true
			if n.searchBody(nd, r, tup, i+1, env, fail) {
				return true
			}
			for _, name := range bound {
				delete(env, name)
			}
		}
		if !matched {
			note(fmt.Sprintf("missing antecedent %s: no stored %s tuple at %s matches %s", l.Atom, l.Atom.Pred, nd.ID, bindText(l.Atom, env)))
		}
		return false
	case l.Atom != nil && l.Neg:
		if t := nd.tables[l.Atom.Pred]; t != nil {
			for _, cand := range t.Sorted() {
				bound, ok := ndlog.MatchAtom(l.Atom, cand, env)
				for _, name := range bound {
					delete(env, name)
				}
				if ok {
					note(fmt.Sprintf("blocked by negation !%s: %s%s exists at %s", l.Atom, l.Atom.Pred, cand, nd.ID))
					return false
				}
			}
		}
		return n.searchBody(nd, r, tup, i+1, env, fail)
	case l.Assign:
		bin, ok := l.Expr.(ndlog.BinE)
		if !ok {
			note(fmt.Sprintf("unevaluable assignment %s", l.Expr))
			return false
		}
		v, err := ndlog.EvalExpr(bin.R, env)
		if err != nil {
			note(fmt.Sprintf("cannot evaluate %s: %v", l.Expr, err))
			return false
		}
		name := bin.L.(ndlog.VarE).Name
		if old, bound := env[name]; bound {
			if !old.Equal(v) {
				note(fmt.Sprintf("assignment %s conflicts with %s=%v", l.Expr, name, old))
				return false
			}
			return n.searchBody(nd, r, tup, i+1, env, fail)
		}
		env[name] = v
		ok = n.searchBody(nd, r, tup, i+1, env, fail)
		if !ok {
			delete(env, name)
		}
		return ok
	default:
		v, err := ndlog.EvalExpr(l.Expr, env)
		if err != nil {
			note(fmt.Sprintf("cannot evaluate condition %s: %v", l.Expr, err))
			return false
		}
		if !v.True() {
			note(fmt.Sprintf("condition %s is false under %s", l.Expr, envText(env)))
			return false
		}
		return n.searchBody(nd, r, tup, i+1, env, fail)
	}
}

// bindText renders an atom's argument pattern with current bindings
// substituted, e.g. link(n0,D,C) with S=n0.
func bindText(atom *ndlog.Atom, env map[string]value.V) string {
	parts := make([]string, len(atom.Args))
	for i, arg := range atom.Args {
		if v, err := ndlog.EvalExpr(arg, env); err == nil {
			parts[i] = v.String()
		} else {
			parts[i] = arg.String()
		}
	}
	return atom.Pred + "(" + strings.Join(parts, ",") + ")"
}

// envText renders a binding environment deterministically.
func envText(env map[string]value.V) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = k + "=" + env[k].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func fmtWhyT(t float64) string {
	s := fmt.Sprintf("%.3f", t)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" {
		s = "0"
	}
	return s
}
