package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Inductive is an inductive predicate definition in the PVS style of the
// paper (§3.1):
//
//	path(S,D,(P: Path),C): INDUCTIVE bool =
//	   (link(S,D,C) AND P=f_init(S,D)) OR (EXISTS ...)
//
// Params are the formal parameters; Body is a formula over exactly those
// parameters (typically a disjunction of existentially closed conjunctions,
// one disjunct per NDlog rule). The definition denotes the least fixed
// point; unfolding the definition as an equivalence is sound in both the
// antecedent and consequent of a sequent.
type Inductive struct {
	Name   string
	Params []Var
	Body   Formula
}

// Clauses splits the body into its top-level disjuncts, one per defining
// rule. Used by rule induction.
func (d *Inductive) Clauses() []Formula {
	if or, ok := d.Body.(Or); ok {
		return or.Fs
	}
	return []Formula{d.Body}
}

// Instantiate returns the body with the formal parameters replaced by args.
func (d *Inductive) Instantiate(args []Term) (Formula, error) {
	s, err := Bind(d.Params, args)
	if err != nil {
		return nil, fmt.Errorf("logic: instantiating %s: %w", d.Name, err)
	}
	return s.Apply(d.Body), nil
}

// Theorem is a named proof goal.
type Theorem struct {
	Name string
	Goal Formula
}

// Theory is a named collection of inductive definitions, axioms, and
// theorems — the logical specification produced by arcs 2 and 4 of the FVN
// pipeline and consumed by the theorem prover (arc 5).
type Theory struct {
	Name       string
	Inductives []*Inductive
	Axioms     []Theorem // assumed without proof
	Theorems   []Theorem // to be proved

	byName map[string]*Inductive
}

// NewTheory creates an empty theory.
func NewTheory(name string) *Theory {
	return &Theory{Name: name, byName: map[string]*Inductive{}}
}

// AddInductive installs a definition, replacing any previous definition of
// the same name.
func (t *Theory) AddInductive(d *Inductive) {
	if t.byName == nil {
		t.byName = map[string]*Inductive{}
	}
	if old, ok := t.byName[d.Name]; ok {
		for i, e := range t.Inductives {
			if e == old {
				t.Inductives[i] = d
				t.byName[d.Name] = d
				return
			}
		}
	}
	t.Inductives = append(t.Inductives, d)
	t.byName[d.Name] = d
}

// Lookup returns the inductive definition of name, if any.
func (t *Theory) Lookup(name string) (*Inductive, bool) {
	if t.byName == nil {
		return nil, false
	}
	d, ok := t.byName[name]
	return d, ok
}

// AddAxiom appends an axiom.
func (t *Theory) AddAxiom(name string, f Formula) {
	t.Axioms = append(t.Axioms, Theorem{Name: name, Goal: f})
}

// AddTheorem appends a proof goal.
func (t *Theory) AddTheorem(name string, f Formula) {
	t.Theorems = append(t.Theorems, Theorem{Name: name, Goal: f})
}

// TheoremByName returns the named theorem.
func (t *Theory) TheoremByName(name string) (Theorem, bool) {
	for _, th := range t.Theorems {
		if th.Name == name {
			return th, true
		}
	}
	return Theorem{}, false
}

// Validate checks internal consistency: every inductive body mentions only
// its parameters as free variables, and recursive occurrences are positive
// (so the least fixed point exists and unfolding is sound).
func (t *Theory) Validate() error {
	// Compute which definitions can (transitively) reach which, so that
	// positivity is required only within recursive cycles: a definition may
	// freely mention an earlier, independent predicate in any polarity
	// (e.g. bestPathCost universally quantifies over path), but predicates
	// in its own recursion must occur positively for the least fixed point
	// to exist.
	reach := map[string]map[string]bool{}
	for _, d := range t.Inductives {
		reach[d.Name] = Predicates(d.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, set := range reach {
			for callee := range set {
				for indirect := range reach[callee] {
					if !set[indirect] {
						set[indirect] = true
						changed = true
					}
				}
			}
		}
	}
	for _, d := range t.Inductives {
		params := map[string]bool{}
		for _, p := range d.Params {
			params[p.Name] = true
		}
		for name := range FreeVars(d.Body) {
			if !params[name] {
				return fmt.Errorf("logic: theory %s: definition %s has unbound free variable %s", t.Name, d.Name, name)
			}
		}
		// The predicates that are in a recursion cycle with d.
		cycle := map[string]bool{d.Name: true}
		for callee := range reach[d.Name] {
			if reach[callee] != nil && reach[callee][d.Name] {
				cycle[callee] = true
			}
		}
		if err := checkPositivity(d.Body, cycle, true); err != nil {
			return fmt.Errorf("logic: theory %s: definition %s: %w", t.Name, d.Name, err)
		}
	}
	return nil
}

// checkPositivity verifies that occurrences of inductively defined
// predicates appear only in positive positions.
func checkPositivity(f Formula, defined map[string]bool, positive bool) error {
	switch x := f.(type) {
	case Pred:
		if defined[x.Name] && !positive {
			return fmt.Errorf("negative occurrence of inductive predicate %s", x.Name)
		}
		return nil
	case Not:
		return checkPositivity(x.F, defined, !positive)
	case And:
		for _, g := range x.Fs {
			if err := checkPositivity(g, defined, positive); err != nil {
				return err
			}
		}
		return nil
	case Or:
		for _, g := range x.Fs {
			if err := checkPositivity(g, defined, positive); err != nil {
				return err
			}
		}
		return nil
	case Implies:
		if err := checkPositivity(x.L, defined, !positive); err != nil {
			return err
		}
		return checkPositivity(x.R, defined, positive)
	case Iff:
		// Both sides occur in both polarities.
		for _, g := range []Formula{x.L, x.R} {
			if err := checkPositivity(g, defined, true); err != nil {
				return err
			}
			if err := checkPositivity(g, defined, false); err != nil {
				return err
			}
		}
		return nil
	case Forall:
		return checkPositivity(x.Body, defined, positive)
	case Exists:
		return checkPositivity(x.Body, defined, positive)
	default:
		return nil
	}
}

// String renders the theory in PVS-like concrete syntax, in the style of
// the listings in the paper.
func (t *Theory) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: THEORY\nBEGIN\n", t.Name)
	for _, d := range t.Inductives {
		params := make([]string, len(d.Params))
		for i, p := range d.Params {
			if p.Sort == SortAny || p.Sort == "" {
				params[i] = p.Name
			} else {
				params[i] = p.Name + ":" + string(p.Sort)
			}
		}
		fmt.Fprintf(&b, "  %s(%s): INDUCTIVE bool =\n    %s\n", d.Name, strings.Join(params, ","), d.Body.String())
	}
	for _, a := range t.Axioms {
		fmt.Fprintf(&b, "  %s: AXIOM\n    %s\n", a.Name, a.Goal.String())
	}
	for _, th := range t.Theorems {
		fmt.Fprintf(&b, "  %s: THEOREM\n    %s\n", th.Name, th.Goal.String())
	}
	b.WriteString("END " + t.Name + "\n")
	return b.String()
}

// PredicateNames returns the sorted names of all inductively defined
// predicates in the theory.
func (t *Theory) PredicateNames() []string {
	names := make([]string, 0, len(t.Inductives))
	for _, d := range t.Inductives {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}
