package prover

import "repro/internal/logic"

// Kernel modes. The default kernel is the interned one: congruence closure
// keyed by hash-consed term ids, memoized simplification, and a grind
// sub-goal memo. UseSeedKernel switches a session back to the seed
// structural kernel — string-keyed congruence closure, no memos — which
// SeqProve exposes as the oracle for equivalence tests.

// UseSeedKernel switches the session to the seed structural kernel. It must
// be called before running tactics.
func (p *Prover) UseSeedKernel() { p.structural = true }

// addPrim replays n primitive inferences into the step accounting (memo
// hits).
func (p *Prover) addPrim(n int) {
	p.PrimSteps += n
	if p.inAuto {
		p.AutoPrim += n
	}
}

// newCC picks the congruence-closure engine for the session's kernel.
func (p *Prover) newCC() ccEngine {
	if p.structural {
		return newCongruence()
	}
	return newICC()
}

// SeqProve replays a proof script against the named theorem using the seed
// structural kernel — the seed prover retained as the oracle the
// randomized equivalence tests and benchmarks compare the interned kernel
// and the parallel obligation pipeline against. Like ProveTheorem, it
// errors if the script fails or leaves goals open.
func SeqProve(th *logic.Theory, theorem, script string) (Result, error) {
	p, err := New(th, theorem)
	if err != nil {
		return Result{}, err
	}
	p.UseSeedKernel()
	return p.Prove(script)
}

// --- grind sub-goal memo ---------------------------------------------------

// grindMemo caches closed grind sub-goals by (sequent, exact depth): a
// repeated sub-sequent is proved once and later hits replay the recorded
// primitive-inference count, keeping step accounting identical to the
// uncached run. Only closed results are stored (open residuals depend on
// the surrounding search), and the depth must match exactly because the
// search is depth-bounded. Lookups verify full structural equality; the
// hash only selects the bucket.
type grindMemo struct {
	m map[grindMemoKey][]grindMemoEnt
}

type grindMemoKey struct {
	hash  uint64
	depth int
}

type grindMemoEnt struct {
	g    Sequent
	prim int
}

func newGrindMemo() *grindMemo {
	return &grindMemo{m: map[grindMemoKey][]grindMemoEnt{}}
}

func sequentHash(g Sequent) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, f := range g.Ante {
		h = (h ^ logic.FormulaHash(f)) * 0x100000001b3
	}
	h = (h ^ 0xabcd) * 0x100000001b3
	for _, f := range g.Cons {
		h = (h ^ logic.FormulaHash(f)) * 0x100000001b3
	}
	return h
}

func sequentEqual(a, b Sequent) bool {
	if len(a.Ante) != len(b.Ante) || len(a.Cons) != len(b.Cons) {
		return false
	}
	for i := range a.Ante {
		if !logic.FormulaEqual(a.Ante[i], b.Ante[i]) {
			return false
		}
	}
	for i := range a.Cons {
		if !logic.FormulaEqual(a.Cons[i], b.Cons[i]) {
			return false
		}
	}
	return true
}

// lookup returns the recorded primitive count for a previously closed
// identical sub-goal at the same depth.
func (mm *grindMemo) lookup(g Sequent, depth int) (int, bool) {
	key := grindMemoKey{hash: sequentHash(g), depth: depth}
	for _, e := range mm.m[key] {
		if sequentEqual(e.g, g) {
			return e.prim, true
		}
	}
	return 0, false
}

func (mm *grindMemo) store(g Sequent, depth, prim int) {
	key := grindMemoKey{hash: sequentHash(g), depth: depth}
	for _, e := range mm.m[key] {
		if sequentEqual(e.g, g) {
			return
		}
	}
	mm.m[key] = append(mm.m[key], grindMemoEnt{g: g, prim: prim})
}
