package logic

import (
	"strings"
)

// Formula is a first-order formula. The constructors mirror the PVS syntax
// used in the paper's encodings: predicates, equality, arithmetic
// comparisons, the propositional connectives, and typed quantifiers.
type Formula interface {
	isFormula()
	// String renders the formula in PVS-like concrete syntax.
	String() string
}

// Pred is an atomic predicate application, e.g. path(S,D,P,C). If the
// predicate name is bound by an inductive definition in the ambient theory,
// the prover may expand it.
type Pred struct {
	Name string
	Args []Term
}

// Eq asserts that two terms are equal.
type Eq struct {
	L, R Term
}

// Cmp is an arithmetic comparison: Op is one of "<", "<=", ">", ">=".
type Cmp struct {
	Op   string
	L, R Term
}

// Not is logical negation.
type Not struct {
	F Formula
}

// And is n-ary conjunction. An empty conjunction is True.
type And struct {
	Fs []Formula
}

// Or is n-ary disjunction. An empty disjunction is False.
type Or struct {
	Fs []Formula
}

// Implies is implication.
type Implies struct {
	L, R Formula
}

// Iff is bi-implication.
type Iff struct {
	L, R Formula
}

// Forall is universal quantification over typed variables.
type Forall struct {
	Vars []Var
	Body Formula
}

// Exists is existential quantification over typed variables.
type Exists struct {
	Vars []Var
	Body Formula
}

// TruthVal is the constant TRUE or FALSE.
type TruthVal struct {
	B bool
}

func (Pred) isFormula()     {}
func (Eq) isFormula()       {}
func (Cmp) isFormula()      {}
func (Not) isFormula()      {}
func (And) isFormula()      {}
func (Or) isFormula()       {}
func (Implies) isFormula()  {}
func (Iff) isFormula()      {}
func (Forall) isFormula()   {}
func (Exists) isFormula()   {}
func (TruthVal) isFormula() {}

// True and False are the propositional constants.
var (
	True  = TruthVal{B: true}
	False = TruthVal{B: false}
)

func (p Pred) String() string {
	parts := make([]string, len(p.Args))
	for i, t := range p.Args {
		parts[i] = t.String()
	}
	return p.Name + "(" + strings.Join(parts, ",") + ")"
}

func (e Eq) String() string  { return e.L.String() + "=" + e.R.String() }
func (c Cmp) String() string { return c.L.String() + c.Op + c.R.String() }
func (n Not) String() string { return "NOT " + paren(n.F) }

func (a And) String() string {
	if len(a.Fs) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a.Fs))
	for i, f := range a.Fs {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " AND ")
}

func (o Or) String() string {
	if len(o.Fs) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(o.Fs))
	for i, f := range o.Fs {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " OR ")
}

func (i Implies) String() string { return paren(i.L) + " => " + paren(i.R) }
func (i Iff) String() string     { return paren(i.L) + " <=> " + paren(i.R) }

func quantString(kw string, vars []Var, body Formula) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		if v.Sort == SortAny || v.Sort == "" {
			parts[i] = v.Name
		} else {
			parts[i] = v.Name + ":" + string(v.Sort)
		}
	}
	return kw + " (" + strings.Join(parts, ",") + "): " + body.String()
}

func (f Forall) String() string { return quantString("FORALL", f.Vars, f.Body) }
func (e Exists) String() string { return quantString("EXISTS", e.Vars, e.Body) }

func (t TruthVal) String() string {
	if t.B {
		return "TRUE"
	}
	return "FALSE"
}

func paren(f Formula) string {
	switch f.(type) {
	case Pred, Eq, Cmp, TruthVal, Not:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}

// Conj builds a conjunction, flattening nested Ands and dropping TRUE.
// FormulaEqual recognizes any structural spelling of the result.
func Conj(fs ...Formula) Formula {
	out := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch x := f.(type) {
		case And:
			out = append(out, x.Fs...)
		case TruthVal:
			if !x.B {
				return False
			}
		default:
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return True
	}
	if len(out) == 1 {
		return out[0]
	}
	return And{Fs: out}
}

// Disj builds a disjunction, flattening nested Ors and dropping FALSE.
func Disj(fs ...Formula) Formula {
	out := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch x := f.(type) {
		case Or:
			out = append(out, x.Fs...)
		case TruthVal:
			if x.B {
				return True
			}
		default:
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return False
	}
	if len(out) == 1 {
		return out[0]
	}
	return Or{Fs: out}
}

// Exist wraps body in an existential quantifier; with no variables it
// returns body unchanged.
func Exist(vars []Var, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	return Exists{Vars: vars, Body: body}
}

// All wraps body in a universal quantifier; with no variables it returns
// body unchanged.
func All(vars []Var, body Formula) Formula {
	if len(vars) == 0 {
		return body
	}
	return Forall{Vars: vars, Body: body}
}

// FormulaEqual reports structural equality of formulas (no alpha-conversion)
// modulo the Conj/Disj smart-constructor normalization: And/Or spines are
// compared flattened, with TRUE/FALSE units dropped, short-circuits applied,
// and empty/singleton lists unwrapped — so And{a, True} equals a, and
// Conj(a, b) equals any structural spelling of a AND b.
func FormulaEqual(a, b Formula) bool {
	a, b = normTop(a), normTop(b)
	switch x := a.(type) {
	case Pred:
		y, ok := b.(Pred)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !TermEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case Eq:
		y, ok := b.(Eq)
		return ok && TermEqual(x.L, y.L) && TermEqual(x.R, y.R)
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Op == y.Op && TermEqual(x.L, y.L) && TermEqual(x.R, y.R)
	case Not:
		y, ok := b.(Not)
		return ok && FormulaEqual(x.F, y.F)
	case And:
		y, ok := b.(And)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !FormulaEqual(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case Or:
		y, ok := b.(Or)
		if !ok || len(x.Fs) != len(y.Fs) {
			return false
		}
		for i := range x.Fs {
			if !FormulaEqual(x.Fs[i], y.Fs[i]) {
				return false
			}
		}
		return true
	case Implies:
		y, ok := b.(Implies)
		return ok && FormulaEqual(x.L, y.L) && FormulaEqual(x.R, y.R)
	case Iff:
		y, ok := b.(Iff)
		return ok && FormulaEqual(x.L, y.L) && FormulaEqual(x.R, y.R)
	case Forall:
		y, ok := b.(Forall)
		if !ok || len(x.Vars) != len(y.Vars) {
			return false
		}
		for i := range x.Vars {
			if x.Vars[i].Name != y.Vars[i].Name {
				return false
			}
		}
		return FormulaEqual(x.Body, y.Body)
	case Exists:
		y, ok := b.(Exists)
		if !ok || len(x.Vars) != len(y.Vars) {
			return false
		}
		for i := range x.Vars {
			if x.Vars[i].Name != y.Vars[i].Name {
				return false
			}
		}
		return FormulaEqual(x.Body, y.Body)
	case TruthVal:
		y, ok := b.(TruthVal)
		return ok && x.B == y.B
	}
	return false
}

// FreeVars returns the free variables of f.
func FreeVars(f Formula) map[string]Sort {
	set := map[string]Sort{}
	collectFree(f, map[string]bool{}, set)
	return set
}

func collectFree(f Formula, bound map[string]bool, set map[string]Sort) {
	switch x := f.(type) {
	case Pred:
		for _, t := range x.Args {
			collectTermFree(t, bound, set)
		}
	case Eq:
		collectTermFree(x.L, bound, set)
		collectTermFree(x.R, bound, set)
	case Cmp:
		collectTermFree(x.L, bound, set)
		collectTermFree(x.R, bound, set)
	case Not:
		collectFree(x.F, bound, set)
	case And:
		for _, g := range x.Fs {
			collectFree(g, bound, set)
		}
	case Or:
		for _, g := range x.Fs {
			collectFree(g, bound, set)
		}
	case Implies:
		collectFree(x.L, bound, set)
		collectFree(x.R, bound, set)
	case Iff:
		collectFree(x.L, bound, set)
		collectFree(x.R, bound, set)
	case Forall:
		inner := copyBound(bound)
		for _, v := range x.Vars {
			inner[v.Name] = true
		}
		collectFree(x.Body, inner, set)
	case Exists:
		inner := copyBound(bound)
		for _, v := range x.Vars {
			inner[v.Name] = true
		}
		collectFree(x.Body, inner, set)
	}
}

func collectTermFree(t Term, bound map[string]bool, set map[string]Sort) {
	switch x := t.(type) {
	case Var:
		if !bound[x.Name] {
			set[x.Name] = x.Sort
		}
	case App:
		for _, a := range x.Args {
			collectTermFree(a, bound, set)
		}
	}
}

func copyBound(bound map[string]bool) map[string]bool {
	out := make(map[string]bool, len(bound))
	for k, v := range bound {
		out[k] = v
	}
	return out
}

// Predicates returns the set of predicate names occurring in f.
func Predicates(f Formula) map[string]bool {
	set := map[string]bool{}
	walkFormula(f, func(g Formula) {
		if p, ok := g.(Pred); ok {
			set[p.Name] = true
		}
	})
	return set
}

// walkFormula applies fn to every subformula of f, pre-order.
func walkFormula(f Formula, fn func(Formula)) {
	fn(f)
	switch x := f.(type) {
	case Not:
		walkFormula(x.F, fn)
	case And:
		for _, g := range x.Fs {
			walkFormula(g, fn)
		}
	case Or:
		for _, g := range x.Fs {
			walkFormula(g, fn)
		}
	case Implies:
		walkFormula(x.L, fn)
		walkFormula(x.R, fn)
	case Iff:
		walkFormula(x.L, fn)
		walkFormula(x.R, fn)
	case Forall:
		walkFormula(x.Body, fn)
	case Exists:
		walkFormula(x.Body, fn)
	}
}

// Size returns the number of connectives, atoms and quantifiers in f,
// a rough complexity measure used by prover heuristics and benchmarks.
func Size(f Formula) int {
	n := 0
	walkFormula(f, func(Formula) { n++ })
	return n
}
