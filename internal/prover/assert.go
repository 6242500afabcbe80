package prover

import (
	"math/big"
	"sort"

	"repro/internal/logic"
	"repro/internal/value"
)

// Assert runs the decision procedure on the current goal (PVS `assert`):
// ground-term evaluation, propositional simplification, congruence closure
// over equalities, and Fourier–Motzkin linear arithmetic over the
// integers. It closes the goal when the antecedent together with the
// negated consequent is inconsistent, and otherwise leaves the simplified
// goal open.
func (p *Prover) Assert() error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step("(assert)")()
	wasAuto := p.inAuto
	p.inAuto = true
	defer func() { p.inAuto = wasAuto }()

	g := p.pop()
	ng, closed := p.assertGoal(g)
	if !closed {
		p.push(*ng)
	}
	return nil
}

// assertGoal simplifies and attempts to close g. Exposed internally for
// grind.
func (p *Prover) assertGoal(g Sequent) (out *Sequent, closed bool) {
	return p.assertGoalDepth(g, 8)
}

// assertGoalDepth is assertGoal with a bound on unit-propagation restarts.
func (p *Prover) assertGoalDepth(g Sequent, depth int) (out *Sequent, closed bool) {
	// Phase 1: evaluate ground subterms and atoms.
	ng := g.Clone()
	for i, f := range ng.Ante {
		ng.Ante[i] = p.simplifyFormula(f)
	}
	for i, f := range ng.Cons {
		ng.Cons[i] = p.simplifyFormula(f)
	}

	// Phase 1.5: rewrite with antecedent equalities whose one side is an
	// atomic term — a variable or skolem constant (PVS's replace*). This
	// lets the symbolic rewrite rules fire through definitions, e.g.
	// P!1 = f_init(S!1,D!1) turns f_last(P!1) into f_last(f_init(...)) → D!1.
	ng = p.substituteEqualities(ng)
	for i, f := range ng.Ante {
		ng.Ante[i] = p.simplifyFormula(f)
	}
	for i, f := range ng.Cons {
		ng.Cons[i] = p.simplifyFormula(f)
	}

	// Phase 2: propositional flattening.
	flat, cl := p.flattenFully(ng)
	if cl {
		return nil, true
	}
	ng = *flat

	// Phase 3: congruence closure.
	cc := newCongruence()
	for _, f := range ng.Ante {
		if eq, ok := f.(logic.Eq); ok {
			cc.addTerm(eq.L)
			cc.addTerm(eq.R)
			cc.merge(eq.L, eq.R)
		}
		if pr, ok := f.(logic.Pred); ok {
			for _, t := range pr.Args {
				cc.addTerm(t)
			}
		}
	}
	for _, f := range ng.Cons {
		switch x := f.(type) {
		case logic.Eq:
			cc.addTerm(x.L)
			cc.addTerm(x.R)
		case logic.Pred:
			for _, t := range x.Args {
				cc.addTerm(t)
			}
		}
	}
	cc.close()

	// Contradictory antecedent equality between distinct constants.
	if cc.inconsistent {
		p.prim()
		return nil, true
	}
	// A consequent equality already entailed by the antecedent equalities.
	for _, f := range ng.Cons {
		if eq, ok := f.(logic.Eq); ok && cc.same(eq.L, eq.R) {
			p.prim()
			return nil, true
		}
	}
	// A consequent atom congruent to an antecedent atom.
	for _, cf := range ng.Cons {
		cp, ok := cf.(logic.Pred)
		if !ok {
			continue
		}
		for _, af := range ng.Ante {
			ap, ok := af.(logic.Pred)
			if !ok || ap.Name != cp.Name || len(ap.Args) != len(cp.Args) {
				continue
			}
			all := true
			for i := range ap.Args {
				if !cc.same(ap.Args[i], cp.Args[i]) {
					all = false
					break
				}
			}
			if all {
				p.prim()
				return nil, true
			}
		}
	}

	// Phase 4: linear integer arithmetic via Fourier–Motzkin. The goal is
	// valid if antecedent ∧ ¬consequent is unsatisfiable over the
	// arithmetic atoms.
	lpAnte := newLinearSystem() // antecedent constraints only
	okArith := true
	for _, f := range ng.Ante {
		switch x := f.(type) {
		case logic.Cmp:
			if !lpAnte.addCmp(x, false) {
				okArith = false
			}
		case logic.Eq:
			lpAnte.addEq(x)
		}
	}
	lp := newLinearSystem()
	lp.cons = append(lp.cons, lpAnte.cons...)
	for _, f := range ng.Cons {
		if x, ok := f.(logic.Cmp); ok {
			if !lp.addCmp(x, true) {
				okArith = false
			}
		}
	}
	_ = okArith // partial encodings are still sound: fewer constraints
	if lp.infeasible() {
		p.prim()
		return nil, true
	}

	// Phase 5: unit propagation (hypothesis chaining, as PVS's assert does
	// via its rewriter): an antecedent implication whose hypothesis is
	// entailed by the rest of the antecedent is replaced by its conclusion,
	// and the analysis restarts.
	if depth > 0 {
		var entailed func(f logic.Formula) bool
		entailed = func(f logic.Formula) bool {
			switch x := f.(type) {
			case logic.Pred:
				for _, af := range ng.Ante {
					ap, ok := af.(logic.Pred)
					if !ok || ap.Name != x.Name || len(ap.Args) != len(x.Args) {
						continue
					}
					all := true
					for i := range ap.Args {
						if !cc.same(ap.Args[i], x.Args[i]) {
							all = false
							break
						}
					}
					if all {
						return true
					}
				}
				return false
			case logic.Eq:
				cc.addTerm(x.L)
				cc.addTerm(x.R)
				return cc.same(x.L, x.R)
			case logic.Cmp:
				// Entailed iff antecedent constraints plus the negation are
				// infeasible.
				trial := newLinearSystem()
				trial.cons = append(trial.cons, lpAnte.cons...)
				if !trial.addCmp(x, true) {
					return false
				}
				return trial.infeasible()
			case logic.And:
				for _, g := range x.Fs {
					if !entailed(g) {
						return false
					}
				}
				return true
			default:
				return containsFormula(ng.Ante, f)
			}
		}
		for i, f := range ng.Ante {
			imp, ok := f.(logic.Implies)
			if !ok {
				continue
			}
			if entailed(imp.L) {
				next := ng.Clone()
				next.Ante[i] = imp.R
				p.prim()
				return p.assertGoalDepth(next, depth-1)
			}
		}
	}

	p.prim()
	return &ng, false
}

// simplifyFormula evaluates ground subterms and decides ground atoms.
func (p *Prover) simplifyFormula(f logic.Formula) logic.Formula {
	switch x := f.(type) {
	case logic.Pred:
		args := make([]logic.Term, len(x.Args))
		for i, t := range x.Args {
			args[i] = simplifyTerm(t)
		}
		return logic.Pred{Name: x.Name, Args: args}
	case logic.Eq:
		l, r := simplifyTerm(x.L), simplifyTerm(x.R)
		if lc, ok := l.(logic.Const); ok {
			if rc, ok := r.(logic.Const); ok {
				return logic.TruthVal{B: lc.Val.Equal(rc.Val)}
			}
		}
		if logic.TermEqual(l, r) {
			return logic.True
		}
		return logic.Eq{L: l, R: r}
	case logic.Cmp:
		l, r := simplifyTerm(x.L), simplifyTerm(x.R)
		if lc, ok := l.(logic.Const); ok {
			if rc, ok := r.(logic.Const); ok {
				v, err := value.ApplyBinary(x.Op, lc.Val, rc.Val)
				if err == nil && v.IsBool() {
					return logic.TruthVal{B: v.True()}
				}
			}
		}
		return logic.Cmp{Op: x.Op, L: l, R: r}
	case logic.Not:
		return logic.Not{F: p.simplifyFormula(x.F)}
	case logic.And:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = p.simplifyFormula(g)
		}
		return logic.Conj(fs...)
	case logic.Or:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = p.simplifyFormula(g)
		}
		return logic.Disj(fs...)
	case logic.Implies:
		return logic.Implies{L: p.simplifyFormula(x.L), R: p.simplifyFormula(x.R)}
	case logic.Iff:
		return logic.Iff{L: p.simplifyFormula(x.L), R: p.simplifyFormula(x.R)}
	case logic.Forall:
		return logic.Forall{Vars: x.Vars, Body: p.simplifyFormula(x.Body)}
	case logic.Exists:
		return logic.Exists{Vars: x.Vars, Body: p.simplifyFormula(x.Body)}
	default:
		return f
	}
}

// simplifyTerm evaluates every ground, interpreted subterm and applies the
// symbolic rewrite rules of the path-vector builtins (the equational
// theory PVS would carry as rewrite lemmas):
//
//	f_last(f_init(x,y))        → y
//	f_last(f_concatPath(x,p))  → f_last(p)
//	f_first(f_init(x,y))       → x
//	f_first(f_concatPath(x,p)) → x
//	f_size(f_init(x,y))        → 2
//	f_size(f_concatPath(x,p))  → f_size(p) + 1
func simplifyTerm(t logic.Term) logic.Term {
	a, ok := t.(logic.App)
	if !ok {
		return t
	}
	args := make([]logic.Term, len(a.Args))
	ground := true
	for i, arg := range a.Args {
		args[i] = simplifyTerm(arg)
		if _, isC := args[i].(logic.Const); !isC {
			ground = false
		}
	}
	nt := logic.App{Fn: a.Fn, Args: args}
	if ground && len(args) > 0 {
		if v, err := logic.EvalGround(nt); err == nil {
			return logic.Const{Val: v}
		}
	}
	if rw, ok := rewriteListFn(nt); ok {
		return simplifyTerm(rw)
	}
	return nt
}

// rewriteListFn applies one step of the builtin list equations to a
// symbolic application.
func rewriteListFn(a logic.App) (logic.Term, bool) {
	if len(a.Args) != 1 {
		return nil, false
	}
	inner, ok := a.Args[0].(logic.App)
	if !ok {
		return nil, false
	}
	switch a.Fn {
	case "f_last":
		switch inner.Fn {
		case "f_init":
			if len(inner.Args) == 2 {
				return inner.Args[1], true
			}
		case "f_concatPath":
			if len(inner.Args) == 2 {
				return logic.Fn("f_last", inner.Args[1]), true
			}
		}
	case "f_first":
		switch inner.Fn {
		case "f_init", "f_concatPath":
			if len(inner.Args) == 2 {
				return inner.Args[0], true
			}
		}
	case "f_size":
		switch inner.Fn {
		case "f_init":
			if len(inner.Args) == 2 {
				return logic.IntT(2), true
			}
		case "f_concatPath":
			if len(inner.Args) == 2 {
				return logic.Fn("+", logic.Fn("f_size", inner.Args[1]), logic.IntT(1)), true
			}
		}
	}
	return nil, false
}

// substituteEqualities applies antecedent equations of the form
// atom = term (or term = atom), where atom is a variable or skolem
// constant not occurring in term, to every other formula of the sequent.
func (p *Prover) substituteEqualities(g Sequent) Sequent {
	ng := g.Clone()
	for iter := 0; iter < 8; iter++ {
		changed := false
		for i, f := range ng.Ante {
			eq, ok := f.(logic.Eq)
			if !ok {
				continue
			}
			from, to, ok := orientEquation(eq)
			if !ok {
				continue
			}
			did := false
			rw := func(h logic.Formula) logic.Formula {
				out := replaceTermInFormula(h, from, to, &did)
				return out
			}
			for j := range ng.Ante {
				if j == i {
					continue
				}
				ng.Ante[j] = rw(ng.Ante[j])
			}
			for j := range ng.Cons {
				ng.Cons[j] = rw(ng.Cons[j])
			}
			if did {
				p.prim()
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return ng
}

// orientEquation picks the rewrite direction: the atomic side (variable or
// nullary application) is replaced by the other side, provided it does not
// occur there.
func orientEquation(eq logic.Eq) (from, to logic.Term, ok bool) {
	if isAtomicTerm(eq.L) && !termContains(eq.R, eq.L) && !logic.TermEqual(eq.L, eq.R) {
		return eq.L, eq.R, true
	}
	if isAtomicTerm(eq.R) && !termContains(eq.L, eq.R) && !logic.TermEqual(eq.L, eq.R) {
		return eq.R, eq.L, true
	}
	return nil, nil, false
}

func isAtomicTerm(t logic.Term) bool {
	switch x := t.(type) {
	case logic.Var:
		return true
	case logic.App:
		return len(x.Args) == 0
	}
	return false
}

func termContains(t, needle logic.Term) bool {
	if logic.TermEqual(t, needle) {
		return true
	}
	if a, ok := t.(logic.App); ok {
		for _, arg := range a.Args {
			if termContains(arg, needle) {
				return true
			}
		}
	}
	return false
}

func replaceTerm(t, from, to logic.Term, did *bool) logic.Term {
	if logic.TermEqual(t, from) {
		*did = true
		return to
	}
	if a, ok := t.(logic.App); ok {
		args := make([]logic.Term, len(a.Args))
		for i, arg := range a.Args {
			args[i] = replaceTerm(arg, from, to, did)
		}
		return logic.App{Fn: a.Fn, Args: args}
	}
	return t
}

// replaceTermInFormula rewrites from→to in the quantifier-free part of f;
// it does not descend under binders that capture a variable named in the
// terms (conservative: it skips quantifiers entirely, which is sound —
// fewer rewrites only weaken simplification).
func replaceTermInFormula(f logic.Formula, from, to logic.Term, did *bool) logic.Formula {
	switch x := f.(type) {
	case logic.Pred:
		args := make([]logic.Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = replaceTerm(a, from, to, did)
		}
		return logic.Pred{Name: x.Name, Args: args}
	case logic.Eq:
		return logic.Eq{L: replaceTerm(x.L, from, to, did), R: replaceTerm(x.R, from, to, did)}
	case logic.Cmp:
		return logic.Cmp{Op: x.Op, L: replaceTerm(x.L, from, to, did), R: replaceTerm(x.R, from, to, did)}
	case logic.Not:
		return logic.Not{F: replaceTermInFormula(x.F, from, to, did)}
	case logic.And:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = replaceTermInFormula(g, from, to, did)
		}
		return logic.And{Fs: fs}
	case logic.Or:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = replaceTermInFormula(g, from, to, did)
		}
		return logic.Or{Fs: fs}
	case logic.Implies:
		return logic.Implies{L: replaceTermInFormula(x.L, from, to, did), R: replaceTermInFormula(x.R, from, to, did)}
	case logic.Iff:
		return logic.Iff{L: replaceTermInFormula(x.L, from, to, did), R: replaceTermInFormula(x.R, from, to, did)}
	default:
		return f
	}
}

// --- congruence closure ----------------------------------------------------

type ccNode struct {
	term   logic.Term
	parent string
}

type congruence struct {
	nodes        map[string]*ccNode
	apps         []logic.App // application terms, for congruence propagation
	inconsistent bool
}

func newCongruence() *congruence {
	return &congruence{nodes: map[string]*ccNode{}}
}

func termKey(t logic.Term) string { return t.String() }

func (c *congruence) addTerm(t logic.Term) {
	k := termKey(t)
	if _, ok := c.nodes[k]; ok {
		return
	}
	c.nodes[k] = &ccNode{term: t, parent: k}
	if a, ok := t.(logic.App); ok {
		c.apps = append(c.apps, a)
		for _, arg := range a.Args {
			c.addTerm(arg)
		}
	}
}

func (c *congruence) find(k string) string {
	n := c.nodes[k]
	if n == nil {
		c.nodes[k] = &ccNode{parent: k}
		return k
	}
	if n.parent != k {
		n.parent = c.find(n.parent)
	}
	return n.parent
}

func (c *congruence) union(a, b string) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	// Prefer constants as representatives so contradiction detection sees
	// them.
	na, nb := c.nodes[ra], c.nodes[rb]
	ca, aIsConst := na.term.(logic.Const)
	cb, bIsConst := nb.term.(logic.Const)
	if aIsConst && bIsConst && !ca.Val.Equal(cb.Val) {
		c.inconsistent = true
	}
	if bIsConst {
		na.parent = rb
	} else {
		nb.parent = ra
	}
}

func (c *congruence) merge(l, r logic.Term) {
	c.addTerm(l)
	c.addTerm(r)
	c.union(termKey(l), termKey(r))
}

func (c *congruence) same(l, r logic.Term) bool {
	return c.find(termKey(l)) == c.find(termKey(r))
}

// close propagates congruence: f(a...) ~ f(b...) whenever a_i ~ b_i.
func (c *congruence) close() {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(c.apps); i++ {
			for j := i + 1; j < len(c.apps); j++ {
				a, b := c.apps[i], c.apps[j]
				if a.Fn != b.Fn || len(a.Args) != len(b.Args) {
					continue
				}
				if c.same(a, b) {
					continue
				}
				cong := true
				for k := range a.Args {
					if !c.same(a.Args[k], b.Args[k]) {
						cong = false
						break
					}
				}
				if cong {
					c.union(termKey(a), termKey(b))
					changed = true
				}
			}
		}
	}
}

// --- linear arithmetic (Fourier–Motzkin over the rationals with integer
// tightening of strict inequalities) ----------------------------------------

// linExpr is Σ coeff·atom + konst; atoms are canonical keys of opaque terms.
type linExpr struct {
	coeffs map[string]*big.Rat
	konst  *big.Rat
}

func newLinExpr() *linExpr {
	return &linExpr{coeffs: map[string]*big.Rat{}, konst: new(big.Rat)}
}

func (e *linExpr) addAtom(key string, c *big.Rat) {
	cur, ok := e.coeffs[key]
	if !ok {
		cur = new(big.Rat)
		e.coeffs[key] = cur
	}
	cur.Add(cur, c)
	if cur.Sign() == 0 {
		delete(e.coeffs, key)
	}
}

func (e *linExpr) addScaled(o *linExpr, s *big.Rat) {
	for k, c := range o.coeffs {
		e.addAtom(k, new(big.Rat).Mul(c, s))
	}
	e.konst.Add(e.konst, new(big.Rat).Mul(o.konst, s))
}

// linearize converts a term into a linear expression over opaque atoms.
// Returns false if the term is non-numeric (e.g. a string constant).
func linearize(t logic.Term) (*linExpr, bool) {
	e := newLinExpr()
	switch x := t.(type) {
	case logic.Const:
		if x.Val.K != value.KindInt {
			return nil, false
		}
		e.konst.SetInt64(x.Val.I)
		return e, true
	case logic.Var:
		e.addAtom(termKey(x), big.NewRat(1, 1))
		return e, true
	case logic.App:
		switch x.Fn {
		case "+", "-":
			if len(x.Args) != 2 {
				break
			}
			l, ok := linearize(x.Args[0])
			if !ok {
				return nil, false
			}
			r, ok := linearize(x.Args[1])
			if !ok {
				return nil, false
			}
			s := big.NewRat(1, 1)
			if x.Fn == "-" {
				s.Neg(s)
			}
			l.addScaled(r, s)
			return l, true
		case "*":
			if len(x.Args) != 2 {
				break
			}
			// constant * linear or linear * constant
			if c, ok := x.Args[0].(logic.Const); ok && c.Val.K == value.KindInt {
				r, ok2 := linearize(x.Args[1])
				if !ok2 {
					return nil, false
				}
				out := newLinExpr()
				out.addScaled(r, new(big.Rat).SetInt64(c.Val.I))
				return out, true
			}
			if c, ok := x.Args[1].(logic.Const); ok && c.Val.K == value.KindInt {
				l, ok2 := linearize(x.Args[0])
				if !ok2 {
					return nil, false
				}
				out := newLinExpr()
				out.addScaled(l, new(big.Rat).SetInt64(c.Val.I))
				return out, true
			}
		}
		// Opaque atom.
		e.addAtom(termKey(x), big.NewRat(1, 1))
		return e, true
	}
	return nil, false
}

// constraint is expr ≤ 0.
type constraint struct{ e *linExpr }

type linearSystem struct {
	cons []constraint
}

func newLinearSystem() *linearSystem { return &linearSystem{} }

// addIneq records l - r ≤ -tight (tight=1 encodes strict < over ints).
func (s *linearSystem) addIneq(l, r logic.Term, strict bool) bool {
	le, ok := linearize(l)
	if !ok {
		return false
	}
	re, ok := linearize(r)
	if !ok {
		return false
	}
	e := newLinExpr()
	e.addScaled(le, big.NewRat(1, 1))
	e.addScaled(re, big.NewRat(-1, 1))
	if strict {
		e.konst.Add(e.konst, big.NewRat(1, 1)) // l < r over ints ⇔ l - r + 1 ≤ 0
	}
	s.cons = append(s.cons, constraint{e: e})
	return true
}

// addCmp records the comparison (or, if negate, its negation).
func (s *linearSystem) addCmp(c logic.Cmp, negate bool) bool {
	op := c.Op
	l, r := c.L, c.R
	if negate {
		switch op {
		case "<":
			op, l, r = "<=", r, l // ¬(l<r) ⇔ r ≤ l
		case "<=":
			op, l, r = "<", r, l // ¬(l≤r) ⇔ r < l
		case ">":
			op = "<=" // ¬(l>r) ⇔ l ≤ r
		case ">=":
			op = "<" // ¬(l≥r) ⇔ l < r
		}
	}
	switch op {
	case "<":
		return s.addIneq(l, r, true)
	case "<=":
		return s.addIneq(l, r, false)
	case ">":
		return s.addIneq(r, l, true)
	case ">=":
		return s.addIneq(r, l, false)
	}
	return false
}

// addEq records l = r as two inequalities (skipped for non-numeric terms).
func (s *linearSystem) addEq(c logic.Eq) bool {
	if !s.addIneq(c.L, c.R, false) {
		return false
	}
	return s.addIneq(c.R, c.L, false)
}

// maxFMConstraints bounds the Fourier–Motzkin blowup; exceeding it makes
// the check give up (sound: the goal simply stays open).
const maxFMConstraints = 20000

// infeasible reports whether the accumulated constraints have no rational
// solution (hence no integer solution).
func (s *linearSystem) infeasible() bool {
	cons := s.cons
	for {
		// Find a variable to eliminate.
		varSet := map[string]bool{}
		for _, c := range cons {
			for k := range c.e.coeffs {
				varSet[k] = true
			}
		}
		if len(varSet) == 0 {
			break
		}
		vars := make([]string, 0, len(varSet))
		for k := range varSet {
			vars = append(vars, k)
		}
		sort.Strings(vars)
		v := vars[0]

		var lower, upper, rest []constraint // lower: coeff<0, upper: coeff>0
		for _, c := range cons {
			coeff, ok := c.e.coeffs[v]
			switch {
			case !ok:
				rest = append(rest, c)
			case coeff.Sign() > 0:
				upper = append(upper, c)
			default:
				lower = append(lower, c)
			}
		}
		if len(lower)*len(upper)+len(rest) > maxFMConstraints {
			return false // give up
		}
		next := rest
		for _, lo := range lower {
			for _, up := range upper {
				// lo: a·v + e1 ≤ 0 with a<0;  up: b·v + e2 ≤ 0 with b>0.
				// Combine: b·e1 - a·e2 ≤ 0 (coefficients of v cancel after
				// scaling lo by b and up by -a).
				a := lo.e.coeffs[v]
				b := up.e.coeffs[v]
				e := newLinExpr()
				e.addScaled(lo.e, b)
				e.addScaled(up.e, new(big.Rat).Neg(a))
				delete(e.coeffs, v) // numeric cancellation, remove residue
				next = append(next, constraint{e: e})
			}
		}
		cons = next
	}
	// All remaining constraints are constant: konst ≤ 0 must hold.
	for _, c := range cons {
		if len(c.e.coeffs) == 0 && c.e.konst.Sign() > 0 {
			return true
		}
	}
	return false
}
