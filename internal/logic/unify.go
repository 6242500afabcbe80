package logic

// Unify attempts to unify terms a and b under the accumulated substitution s,
// extending s in place. It returns false (leaving s in an indeterminate
// state) if the terms do not unify; callers that need backtracking should
// pass a copy.
func Unify(a, b Term, s Subst) bool {
	a = walk(a, s)
	b = walk(b, s)
	switch x := a.(type) {
	case Var:
		if y, ok := b.(Var); ok && y.Name == x.Name {
			return true
		}
		if occurs(x.Name, b, s) {
			return false
		}
		s[x.Name] = b
		return true
	case Const:
		switch y := b.(type) {
		case Const:
			return x.Val.Equal(y.Val)
		case Var:
			s[y.Name] = a
			return true
		}
		return false
	case App:
		switch y := b.(type) {
		case Var:
			if occurs(y.Name, a, s) {
				return false
			}
			s[y.Name] = a
			return true
		case App:
			if x.Fn != y.Fn || len(x.Args) != len(y.Args) {
				return false
			}
			for i := range x.Args {
				if !Unify(x.Args[i], y.Args[i], s) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}

// walk dereferences a variable through the substitution chain.
func walk(t Term, s Subst) Term {
	for {
		v, ok := t.(Var)
		if !ok {
			return t
		}
		r, bound := s[v.Name]
		if !bound {
			return t
		}
		t = r
	}
}

func occurs(name string, t Term, s Subst) bool {
	t = walk(t, s)
	switch x := t.(type) {
	case Var:
		return x.Name == name
	case App:
		for _, a := range x.Args {
			if occurs(name, a, s) {
				return true
			}
		}
	}
	return false
}

// Resolve fully applies the substitution to a term, chasing variable chains.
func Resolve(t Term, s Subst) Term {
	t = walk(t, s)
	if a, ok := t.(App); ok {
		args := make([]Term, len(a.Args))
		for i, arg := range a.Args {
			args[i] = Resolve(arg, s)
		}
		return App{Fn: a.Fn, Args: args}
	}
	return t
}

// Match attempts to match pattern against ground (one-way unification):
// only variables of the pattern may be bound. It extends s and reports
// success.
func Match(pattern, ground Term, s Subst) bool {
	switch x := pattern.(type) {
	case Var:
		if r, ok := s[x.Name]; ok {
			return TermEqual(Resolve(r, s), ground)
		}
		s[x.Name] = ground
		return true
	case Const:
		y, ok := ground.(Const)
		return ok && x.Val.Equal(y.Val)
	case App:
		y, ok := ground.(App)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Match(x.Args[i], y.Args[i], s) {
				return false
			}
		}
		return true
	}
	return false
}

// MatchPred matches the arguments of predicate pattern p against predicate g.
func MatchPred(p, g Pred, s Subst) bool {
	if p.Name != g.Name || len(p.Args) != len(g.Args) {
		return false
	}
	for i := range p.Args {
		if !Match(p.Args[i], g.Args[i], s) {
			return false
		}
	}
	return true
}
