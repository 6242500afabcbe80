package logic

import (
	"fmt"
	"testing"
)

// Tests for Unify: corner cases (occurs check, repeated variables,
// resolution through binding chains) plus a property test against a local
// copy of the seed structural implementation, which pins Unify's verdicts
// and bindings.

// seedOccurs is the seed occurs check.
func seedOccurs(name string, t Term, s Subst) bool {
	t = walk(t, s)
	switch x := t.(type) {
	case Var:
		return x.Name == name
	case App:
		for _, a := range x.Args {
			if seedOccurs(name, a, s) {
				return true
			}
		}
	}
	return false
}

// seedUnify is the seed structural unifier, kept verbatim apart from using
// seedOccurs, as the oracle for the property test.
func seedUnify(a, b Term, s Subst) bool {
	a = walk(a, s)
	b = walk(b, s)
	switch x := a.(type) {
	case Var:
		if y, ok := b.(Var); ok && y.Name == x.Name {
			return true
		}
		if seedOccurs(x.Name, b, s) {
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
			if seedOccurs(y.Name, a, s) {
				return false
			}
			s[y.Name] = a
			return true
		case App:
			if x.Fn != y.Fn || len(x.Args) != len(y.Args) {
				return false
			}
			for i := range x.Args {
				if !seedUnify(x.Args[i], y.Args[i], s) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}

func TestUnifyOccursCheckThroughChains(t *testing.T) {
	// Through a chain: X↦Y then Y against g(X) must fail (Y resolves into
	// a term containing the chain head).
	s := Subst{}
	if !Unify(V("X"), V("Y"), s) {
		t.Fatal("X ~ Y failed")
	}
	if Unify(V("Y"), Fn("g", V("X"), IntT(1)), s) {
		t.Error("unified Y with g(X) after X↦Y")
	}
	// Ground right-hand side: occurs must not fire, binding succeeds.
	s = Subst{}
	ground := Fn("f", Fn("g", IntT(1), IntT(2)))
	if !Unify(V("X"), ground, s) {
		t.Error("failed to bind X to a ground term")
	}
	if !TermEqual(Resolve(V("X"), s), ground) {
		t.Error("X did not resolve to the ground term")
	}
}

func TestUnifyRepeatedVariables(t *testing.T) {
	// g(X,X) against g(1,2) must fail: the second position sees X bound.
	s := Subst{}
	if Unify(Fn("g", V("X"), V("X")), Fn("g", IntT(1), IntT(2)), s) {
		t.Error("unified g(X,X) with g(1,2)")
	}
	// g(X,X) against g(Y,3) binds both X and Y to 3.
	s = Subst{}
	if !Unify(Fn("g", V("X"), V("X")), Fn("g", V("Y"), IntT(3)), s) {
		t.Fatal("g(X,X) ~ g(Y,3) failed")
	}
	for _, v := range []string{"X", "Y"} {
		if !TermEqual(Resolve(V(v), s), IntT(3)) {
			t.Errorf("%s resolved to %v, want 3", v, Resolve(V(v), s))
		}
	}
	// Same variable on both sides is a trivial success without binding.
	s = Subst{}
	if !Unify(V("X"), V("X"), s) || len(s) != 0 {
		t.Errorf("X ~ X: ok with empty subst expected, got %v", s)
	}
}

func TestResolveThroughChains(t *testing.T) {
	// X↦Y, Y↦f(Z), Z↦4: Resolve must chase the chain through App args.
	s := Subst{"X": V("Y"), "Y": Fn("f", V("Z")), "Z": IntT(4)}
	got := Resolve(V("X"), s)
	if !TermEqual(got, Fn("f", IntT(4))) {
		t.Errorf("Resolve(X) = %v, want f(4)", got)
	}
	// Unify through the chain: X against f(4) succeeds, against f(5) fails.
	if !Unify(V("X"), Fn("f", IntT(4)), cloneSubst(s)) {
		t.Error("X ~ f(4) through chain failed")
	}
	if Unify(V("X"), Fn("f", IntT(5)), cloneSubst(s)) {
		t.Error("X ~ f(5) through chain succeeded")
	}
}

func cloneSubst(s Subst) Subst {
	out := Subst{}
	for k, v := range s {
		out[k] = v
	}
	return out
}

// uRng is a small deterministic PRNG for the property test.
type uRng struct{ s uint64 }

func (r *uRng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}

func (r *uRng) intn(n int) int { return int(r.next() % uint64(n)) }

// randUnifyTerm builds terms over variables X0..X2, int and addr
// constants, and f/g applications. Addr constants print like their string,
// so they also exercise Const-vs-Const value comparison.
func randUnifyTerm(r *uRng, depth int) Term {
	if depth <= 0 || r.intn(3) == 0 {
		switch r.intn(3) {
		case 0:
			return V(fmt.Sprintf("X%d", r.intn(3)))
		case 1:
			return IntT(int64(r.intn(3)))
		default:
			return AddrT(fmt.Sprintf("n%d", r.intn(2)))
		}
	}
	if r.intn(2) == 0 {
		return Fn("f", randUnifyTerm(r, depth-1))
	}
	return Fn("g", randUnifyTerm(r, depth-1), randUnifyTerm(r, depth-1))
}

func TestUnifyMatchesSeedImplementation(t *testing.T) {
	r := &uRng{s: 99}
	vars := []string{"X0", "X1", "X2"}
	for i := 0; i < 3000; i++ {
		a := randUnifyTerm(r, 3)
		b := randUnifyTerm(r, 3)
		s1 := Subst{}
		s2 := Subst{}
		ok1 := Unify(a, b, s1)
		ok2 := seedUnify(a, b, s2)
		if ok1 != ok2 {
			t.Fatalf("case %d: Unify(%v, %v) = %v, seed = %v", i, a, b, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		for _, v := range vars {
			r1 := Resolve(V(v), s1)
			r2 := Resolve(Var{Name: v}, s2)
			if !TermEqual(r1, r2) {
				t.Fatalf("case %d: %s resolves to %v vs %v (seed) for Unify(%v, %v)",
					i, v, r1, r2, a, b)
			}
		}
	}
}
