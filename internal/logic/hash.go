package logic

import (
	"slices"

	"repro/internal/value"
)

// This file implements structural hashing of terms and formulas. A hash is
// a pure function of a node's content (names, constants, shape), so it is
// the same in every process: the proof-obligation cache keys goals and
// theories by it (see internal/verify). Nodes that are structurally equal
// hash equal, and FormulaHash is taken over the Conj/Disj normal form so it
// agrees with FormulaEqual. Distinct nodes share a hash only by a 64-bit
// collision.

// Node-kind tags mixed into hashes so different node kinds with equal
// children hash apart.
const (
	tagVar = iota + 1
	tagConst
	tagApp
	tagPred
	tagEq
	tagCmp
	tagNot
	tagAnd
	tagOr
	tagImplies
	tagIff
	tagForall
	tagExists
	tagTrue
	tagFalse
	tagInductive
	tagAxiom
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 is the splitmix64 finalizer (same idiom as internal/faults and
// internal/modelcheck), used to scatter combined hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fold combines an accumulated hash with the next component,
// order-sensitively.
func fold(h, x uint64) uint64 {
	return (h ^ x) * fnvPrime
}

func hashSeed(tag uint64) uint64 {
	return fold(fnvOffset, mix64(tag))
}

// hashValue hashes a constant value consistently with value.V.Equal: only
// the fields Equal inspects contribute.
func hashValue(v value.V) uint64 {
	h := fold(hashSeed(tagConst), mix64(uint64(v.K)))
	switch v.K {
	case value.KindInt, value.KindBool:
		h = fold(h, mix64(uint64(v.I)))
	case value.KindStr, value.KindAddr:
		h = fold(h, hashString(v.S))
	case value.KindList:
		for _, e := range v.L {
			h = fold(h, hashValue(e))
		}
	}
	return mix64(h)
}

// hashQuantVars folds the bound-variable names of a quantifier. Equality
// compares names only, so sorts must not contribute.
func hashQuantVars(h uint64, vars []Var) uint64 {
	for _, v := range vars {
		h = fold(h, hashString(v.Name))
	}
	return h
}

// flattenConj normalizes a conjunct list the way repeated Conj application
// would: nested Ands are spliced recursively, TRUE units are dropped, and a
// FALSE unit short-circuits (reported via the second result). The input
// slice is never modified.
func flattenConj(fs []Formula) ([]Formula, bool) {
	flat := true
	for _, f := range fs {
		switch f.(type) {
		case And, TruthVal:
			flat = false
		}
	}
	if flat {
		return fs, false
	}
	out := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch x := f.(type) {
		case And:
			sub, isFalse := flattenConj(x.Fs)
			if isFalse {
				return nil, true
			}
			out = append(out, sub...)
		case TruthVal:
			if !x.B {
				return nil, true
			}
		default:
			out = append(out, f)
		}
	}
	return out, false
}

// flattenDisj is the dual of flattenConj: TRUE short-circuits (second
// result), FALSE units are dropped.
func flattenDisj(fs []Formula) ([]Formula, bool) {
	flat := true
	for _, f := range fs {
		switch f.(type) {
		case Or, TruthVal:
			flat = false
		}
	}
	if flat {
		return fs, false
	}
	out := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch x := f.(type) {
		case Or:
			sub, isTrue := flattenDisj(x.Fs)
			if isTrue {
				return nil, true
			}
			out = append(out, sub...)
		case TruthVal:
			if x.B {
				return nil, true
			}
		default:
			out = append(out, f)
		}
	}
	return out, false
}

// isFlatSpine reports whether fs contains no element a flatten pass would
// rewrite: no TruthVal, and no nested And (disj=false) or Or (disj=true).
func isFlatSpine(fs []Formula, disj bool) bool {
	for _, f := range fs {
		switch f.(type) {
		case TruthVal:
			return false
		case And:
			if !disj {
				return false
			}
		case Or:
			if disj {
				return false
			}
		}
	}
	return true
}

// normTop rewrites the top of f to the Conj/Disj normal form: And/Or spines
// are flattened, units dropped, short-circuits applied, and empty/singleton
// lists unwrapped. Non-And/Or formulas are returned unchanged.
func normTop(f Formula) Formula {
	switch x := f.(type) {
	case And:
		if len(x.Fs) >= 2 && isFlatSpine(x.Fs, false) {
			return f
		}
		fs, isFalse := flattenConj(x.Fs)
		if isFalse {
			return False
		}
		switch len(fs) {
		case 0:
			return True
		case 1:
			return normTop(fs[0])
		}
		return And{Fs: fs}
	case Or:
		if len(x.Fs) >= 2 && isFlatSpine(x.Fs, true) {
			return f
		}
		fs, isTrue := flattenDisj(x.Fs)
		if isTrue {
			return True
		}
		switch len(fs) {
		case 0:
			return False
		case 1:
			return normTop(fs[0])
		}
		return Or{Fs: fs}
	}
	return f
}

// TermHash returns the structural hash of t. Terms equal under TermEqual
// hash equal.
func TermHash(t Term) uint64 {
	switch x := t.(type) {
	case Var:
		return mix64(fold(hashSeed(tagVar), hashString(x.Name)))
	case Const:
		return hashValue(x.Val)
	case App:
		h := fold(hashSeed(tagApp), hashString(x.Fn))
		for _, a := range x.Args {
			h = fold(h, TermHash(a))
		}
		return mix64(h)
	}
	return 0
}

// FormulaHash returns the structural hash of f, computed over the Conj/Disj
// normal form so formulas equal under FormulaEqual hash equal.
func FormulaHash(f Formula) uint64 {
	switch x := f.(type) {
	case Pred:
		h := fold(hashSeed(tagPred), hashString(x.Name))
		for _, a := range x.Args {
			h = fold(h, TermHash(a))
		}
		return mix64(h)
	case Eq:
		return mix64(fold(fold(hashSeed(tagEq), TermHash(x.L)), TermHash(x.R)))
	case Cmp:
		return mix64(fold(fold(fold(hashSeed(tagCmp), hashString(x.Op)), TermHash(x.L)), TermHash(x.R)))
	case Not:
		return mix64(fold(hashSeed(tagNot), FormulaHash(x.F)))
	case And, Or:
		norm := normTop(f)
		switch nx := norm.(type) {
		case And:
			h := hashSeed(tagAnd)
			for _, g := range nx.Fs {
				h = fold(h, FormulaHash(g))
			}
			return mix64(h)
		case Or:
			h := hashSeed(tagOr)
			for _, g := range nx.Fs {
				h = fold(h, FormulaHash(g))
			}
			return mix64(h)
		default:
			return FormulaHash(norm)
		}
	case Implies:
		return mix64(fold(fold(hashSeed(tagImplies), FormulaHash(x.L)), FormulaHash(x.R)))
	case Iff:
		return mix64(fold(fold(hashSeed(tagIff), FormulaHash(x.L)), FormulaHash(x.R)))
	case Forall:
		return mix64(fold(hashQuantVars(hashSeed(tagForall), x.Vars), FormulaHash(x.Body)))
	case Exists:
		return mix64(fold(hashQuantVars(hashSeed(tagExists), x.Vars), FormulaHash(x.Body)))
	case TruthVal:
		if x.B {
			return mix64(hashSeed(tagTrue))
		}
		return mix64(hashSeed(tagFalse))
	}
	return 0
}

// TheoryFingerprint hashes the proof-relevant content of a theory — its
// inductive definitions and axioms (theorems do not affect provability of
// other goals). The per-item hashes are sorted and then folded, so
// declaration order does not change the fingerprint, while a repeated
// item still counts: no pair of items cancels. The fingerprint is the
// theory half of the obligation-cache key.
func TheoryFingerprint(t *Theory) uint64 {
	if t == nil {
		return 0
	}
	items := make([]uint64, 0, len(t.Inductives)+len(t.Axioms))
	for _, d := range t.Inductives {
		h := fold(hashSeed(tagInductive), hashString(d.Name))
		for _, p := range d.Params {
			h = fold(h, hashString(p.Name))
		}
		h = fold(h, FormulaHash(d.Body))
		items = append(items, mix64(h))
	}
	for _, a := range t.Axioms {
		items = append(items, mix64(fold(fold(hashSeed(tagAxiom), hashString(a.Name)), FormulaHash(a.Goal))))
	}
	slices.Sort(items)
	acc := uint64(fnvOffset)
	for _, h := range items {
		acc = fold(acc, h)
	}
	return mix64(acc)
}
