package logic

import (
	"fmt"
	"strconv"
)

// Subst maps variable names to replacement terms.
type Subst map[string]Term

// ApplyTerm applies the substitution to a term.
func (s Subst) ApplyTerm(t Term) Term {
	switch x := t.(type) {
	case Var:
		if r, ok := s[x.Name]; ok {
			return r
		}
		return x
	case App:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = s.ApplyTerm(a)
		}
		return App{Fn: x.Fn, Args: args}
	default:
		return t
	}
}

// Apply applies the substitution to a formula, renaming bound variables as
// needed to avoid capture.
func (s Subst) Apply(f Formula) Formula {
	switch x := f.(type) {
	case Pred:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = s.ApplyTerm(a)
		}
		return Pred{Name: x.Name, Args: args}
	case Eq:
		return Eq{L: s.ApplyTerm(x.L), R: s.ApplyTerm(x.R)}
	case Cmp:
		return Cmp{Op: x.Op, L: s.ApplyTerm(x.L), R: s.ApplyTerm(x.R)}
	case Not:
		return Not{F: s.Apply(x.F)}
	case And:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = s.Apply(g)
		}
		return And{Fs: fs}
	case Or:
		fs := make([]Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = s.Apply(g)
		}
		return Or{Fs: fs}
	case Implies:
		return Implies{L: s.Apply(x.L), R: s.Apply(x.R)}
	case Iff:
		return Iff{L: s.Apply(x.L), R: s.Apply(x.R)}
	case Forall:
		vars, body := s.applyQuant(x.Vars, x.Body)
		return Forall{Vars: vars, Body: body}
	case Exists:
		vars, body := s.applyQuant(x.Vars, x.Body)
		return Exists{Vars: vars, Body: body}
	default:
		return f
	}
}

// applyQuant applies s under a binder, alpha-renaming bound variables that
// would capture free variables of the substitution's range (or that are in
// the substitution's domain).
func (s Subst) applyQuant(vars []Var, body Formula) ([]Var, Formula) {
	// Compute the free variables appearing in the range of s restricted to
	// the free variables of the body, to detect capture.
	rangeFree := map[string]Sort{}
	bodyFree := FreeVars(body)
	for name := range bodyFree {
		if t, ok := s[name]; ok {
			TermVars(t, rangeFree)
		}
	}
	inner := Subst{}
	for k, v := range s {
		inner[k] = v
	}
	newVars := make([]Var, len(vars))
	avoid := map[string]bool{}
	for n := range rangeFree {
		avoid[n] = true
	}
	for n := range bodyFree {
		avoid[n] = true
	}
	for i, v := range vars {
		// The binder shadows any outer substitution of the same name.
		delete(inner, v.Name)
		if capturable(v.Name, rangeFree) {
			fresh := FreshName(v.Name, avoid)
			avoid[fresh] = true
			inner[v.Name] = Var{Name: fresh, Sort: v.Sort}
			newVars[i] = Var{Name: fresh, Sort: v.Sort}
		} else {
			newVars[i] = v
		}
	}
	return newVars, inner.Apply(body)
}

func capturable(name string, rangeFree map[string]Sort) bool {
	_, ok := rangeFree[name]
	return ok
}

// FreshName returns a name based on base that is not present in avoid.
func FreshName(base string, avoid map[string]bool) string {
	if !avoid[base] {
		return base
	}
	for i := 1; ; i++ {
		cand := base + "!" + strconv.Itoa(i)
		if !avoid[cand] {
			return cand
		}
	}
}

// Bind builds a substitution pairing vars[i] with terms[i].
func Bind(vars []Var, terms []Term) (Subst, error) {
	if len(vars) != len(terms) {
		return nil, fmt.Errorf("logic: binding %d variables to %d terms", len(vars), len(terms))
	}
	s := Subst{}
	for i, v := range vars {
		s[v.Name] = terms[i]
	}
	return s, nil
}

// RenameApart renames the given bound variables away from the avoid set,
// returning the fresh variables and the renamed body.
func RenameApart(vars []Var, body Formula, avoid map[string]bool) ([]Var, Formula) {
	s := Subst{}
	fresh := make([]Var, len(vars))
	local := map[string]bool{}
	for k := range avoid {
		local[k] = true
	}
	for i, v := range vars {
		name := FreshName(v.Name, local)
		local[name] = true
		fresh[i] = Var{Name: name, Sort: v.Sort}
		if name != v.Name {
			s[v.Name] = fresh[i]
		}
	}
	if len(s) == 0 {
		return fresh, body
	}
	return fresh, s.Apply(body)
}
