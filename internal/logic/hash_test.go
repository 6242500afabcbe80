package logic

import (
	"testing"
)

// Tests for structural equality and hashing: equality is consistent with
// Conj/Disj variadic normalization, and hashes agree with equality.

func TestTermEqualStructural(t *testing.T) {
	a := Fn("f", V("X"), IntT(3))
	b := Fn("f", V("X"), IntT(3))
	if !TermEqual(a, b) || TermHash(a) != TermHash(b) {
		t.Errorf("identical terms: equal=%v, hashes %x and %x", TermEqual(a, b), TermHash(a), TermHash(b))
	}
	c := Fn("f", V("X"), IntT(4))
	if TermEqual(a, c) || TermHash(a) == TermHash(c) {
		t.Error("distinct terms compare or hash equal")
	}
	// Constructors and composite literals build the same terms.
	raw := App{Fn: "f", Args: []Term{Var{Name: "X"}, IntT(3)}}
	if !TermEqual(a, raw) || TermHash(a) != TermHash(raw) {
		t.Error("constructed term not equal to identical literal")
	}
	// Sorts annotate but do not distinguish: TermEqual ignores Var.Sort.
	if !TermEqual(V("X"), TV("X", SortNode)) || TermHash(V("X")) != TermHash(TV("X", SortNode)) {
		t.Error("sort annotation changed term identity")
	}
	// A nullary App is not a Var or Const of the same spelling.
	if TermEqual(Fn("x"), V("x")) {
		t.Error("nullary app equals var")
	}
}

func TestFormulaEqualConsistentWithConjNormalization(t *testing.T) {
	a := Pred{Name: "p", Args: []Term{IntT(1)}}
	b := Pred{Name: "q", Args: []Term{IntT(2)}}
	c := Pred{Name: "rr"}

	cases := []struct {
		name string
		x, y Formula
		want bool
	}{
		{"constructor vs literal", Conj(a, b), And{Fs: []Formula{a, b}}, true},
		{"nested flatten", And{Fs: []Formula{And{Fs: []Formula{a, b}}, c}}, Conj(a, b, c), true},
		{"true unit dropped", And{Fs: []Formula{a, True}}, a, true},
		{"false unit dropped in or", Or{Fs: []Formula{False, a}}, a, true},
		{"empty conj is true", And{}, True, true},
		{"empty disj is false", Or{}, False, true},
		{"singleton unwraps", And{Fs: []Formula{a}}, a, true},
		{"false short-circuits and", And{Fs: []Formula{a, False}}, False, true},
		{"true short-circuits or", Or{Fs: []Formula{b, True, a}}, True, true},
		{"deep nesting both sides", And{Fs: []Formula{a, And{Fs: []Formula{b, c}}}}, And{Fs: []Formula{And{Fs: []Formula{a, b}}, c}}, true},
		{"order matters", Conj(a, b), Conj(b, a), false},
		{"and is not or", Conj(a, b), Disj(a, b), false},
		{"arity matters", Conj(a, b, c), Conj(a, b), false},
	}
	for _, tc := range cases {
		if got := FormulaEqual(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: FormulaEqual(%v, %v) = %v, want %v", tc.name, tc.x, tc.y, got, tc.want)
		}
		if got := FormulaEqual(tc.y, tc.x); got != tc.want {
			t.Errorf("%s (flipped): FormulaEqual = %v, want %v", tc.name, got, tc.want)
		}
		// Hashes must agree with equality.
		if got := FormulaHash(tc.x) == FormulaHash(tc.y); got != tc.want {
			t.Errorf("%s: hashes equal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A formula's identity is FormulaEqual plus FormulaHash, the key the
// theorem cache uses: the normalized Conj result and the nested literal it
// normalizes to must share it.
func TestInternFormulaSharesConstructorIdentity(t *testing.T) {
	a := Pred{Name: "p"}
	b := Pred{Name: "q"}
	built := Conj(a, b, True)
	spelled := And{Fs: []Formula{a, And{Fs: []Formula{b}}}}
	if !FormulaEqual(built, spelled) {
		t.Errorf("Conj(p,q,TRUE) = %v not equal to And{p,And{q}} = %v", built, spelled)
	}
	if FormulaHash(built) != FormulaHash(spelled) {
		t.Errorf("Conj(p,q,TRUE) hash %x != And{p,And{q}} hash %x", FormulaHash(built), FormulaHash(spelled))
	}
}

func TestQuantifierInterning(t *testing.T) {
	body := Pred{Name: "p", Args: []Term{V("X")}}
	f1 := Forall{Vars: []Var{V("X")}, Body: body}
	f2 := Forall{Vars: []Var{V("X")}, Body: body}
	if !FormulaEqual(f1, f2) || FormulaHash(f1) != FormulaHash(f2) {
		t.Error("identical quantified formulas differ in identity")
	}
	g := Exists{Vars: []Var{V("X")}, Body: body}
	if FormulaEqual(f1, g) || FormulaHash(f1) == FormulaHash(g) {
		t.Error("forall and exists share an identity")
	}
}

// TestTheoryFingerprintRepeatedItems: the fingerprint ignores declaration
// order, but repeated items must not cancel. A theory declaring one axiom
// twice must fingerprint apart from the empty theory and from the theory
// declaring it once, or the proof cache could replay a proof that needed
// the axiom for a theory without it.
func TestTheoryFingerprintRepeatedItems(t *testing.T) {
	p := Pred{Name: "p", Args: []Term{IntT(1)}}
	q := Pred{Name: "q", Args: []Term{IntT(2)}}
	theory := func(axioms ...string) *Theory {
		th := NewTheory("t")
		for _, name := range axioms {
			f := Formula(p)
			if name == "ax2" {
				f = q
			}
			th.AddAxiom(name, f)
		}
		return th
	}
	empty := TheoryFingerprint(theory())
	once := TheoryFingerprint(theory("ax1"))
	twice := TheoryFingerprint(theory("ax1", "ax1"))
	if twice == empty {
		t.Errorf("axiom declared twice fingerprints like the empty theory (%#x)", empty)
	}
	if twice == once || once == empty {
		t.Errorf("fingerprints empty %#x, once %#x, twice %#x: want all distinct", empty, once, twice)
	}
	pair := TheoryFingerprint(theory("ax1", "ax2", "ax1", "ax2"))
	if pair == empty || pair == TheoryFingerprint(theory("ax1", "ax2")) {
		t.Errorf("two repeated axioms cancel: fingerprint %#x", pair)
	}
	if TheoryFingerprint(theory("ax1", "ax2")) != TheoryFingerprint(theory("ax2", "ax1")) {
		t.Error("declaration order changed the fingerprint")
	}
}
