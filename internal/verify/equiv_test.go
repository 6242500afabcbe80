package verify

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/logic"
)

// The equivalence tests pit the parallel and cached pipeline against the
// sequential, uncached one (Options{Workers: 1}) on randomized proof
// obligations: verdicts and step counts must agree exactly, with the
// cache on and off and at every worker count. The cache and the worker
// pool are only allowed to change speed, never what is proved or how many
// inferences it takes.

type eqRng struct{ s uint64 }

func (r *eqRng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}

func (r *eqRng) intn(n int) int { return int(r.next() % uint64(n)) }

// randEqTerm builds ground terms over a few integer constants and the
// uninterpreted functions f (unary) and g (binary), the fragment the
// congruence-closure engines chew on.
func randEqTerm(r *eqRng, depth int) logic.Term {
	if depth <= 0 || r.intn(3) == 0 {
		return logic.IntT(int64(r.intn(4)))
	}
	if r.intn(2) == 0 {
		return logic.Fn("f", randEqTerm(r, depth-1))
	}
	return logic.Fn("g", randEqTerm(r, depth-1), randEqTerm(r, depth-1))
}

// randEqFormula builds propositional combinations of ground predicate
// atoms and equalities — goals that drive flatten, split, the congruence
// engine, and grind's backtracking search. Validity is irrelevant: the
// configurations must agree on provable and unprovable goals alike.
func randEqFormula(r *eqRng, depth int) logic.Formula {
	if depth <= 0 || r.intn(4) == 0 {
		if r.intn(2) == 0 {
			return logic.Eq{L: randEqTerm(r, 2), R: randEqTerm(r, 2)}
		}
		preds := []string{"p", "q", "rr"}
		return logic.Pred{Name: preds[r.intn(len(preds))], Args: []logic.Term{randEqTerm(r, 1)}}
	}
	switch r.intn(5) {
	case 0:
		return logic.Not{F: randEqFormula(r, depth-1)}
	case 1:
		return logic.Conj(randEqFormula(r, depth-1), randEqFormula(r, depth-1))
	case 2:
		return logic.Disj(randEqFormula(r, depth-1), randEqFormula(r, depth-1))
	case 3:
		return logic.Implies{L: randEqFormula(r, depth-1), R: randEqFormula(r, depth-1)}
	default:
		return logic.Iff{L: randEqFormula(r, depth-1), R: randEqFormula(r, depth-1)}
	}
}

// randObligations builds a deterministic batch of random theories, each
// with a couple of random axioms and one goal, discharged by the default
// skosimp*+grind script.
func randObligations(seed uint64, n int) []Obligation {
	r := &eqRng{s: seed}
	var out []Obligation
	for i := 0; i < n; i++ {
		th := logic.NewTheory(fmt.Sprintf("rand%d", i))
		for a := 0; a < 1+r.intn(2); a++ {
			th.AddAxiom(fmt.Sprintf("ax%d", a), randEqFormula(r, 2))
		}
		th.AddTheorem("goal", randEqFormula(r, 3))
		out = append(out, Obligation{
			Name:    fmt.Sprintf("rand/%d", i),
			Theory:  th,
			Theorem: "goal",
		})
	}
	return out
}

func sameOutcome(t *testing.T, ctx string, want, got Result) {
	t.Helper()
	if want.Proved != got.Proved || want.Steps != got.Steps ||
		want.PrimSteps != got.PrimSteps || want.AutoPrim != got.AutoPrim {
		t.Errorf("%s %s: want=(proved=%v steps=%d prim=%d auto=%d) got=(proved=%v steps=%d prim=%d auto=%d)",
			ctx, want.Name,
			want.Proved, want.Steps, want.PrimSteps, want.AutoPrim,
			got.Proved, got.Steps, got.PrimSteps, got.AutoPrim)
	}
}

// TestPipelineMatchesSeedKernelOnRandomGoals is the randomized
// sequential-vs-parallel and uncached-vs-cached equivalence test: the
// sequential uncached run of the seed structural kernel is the oracle,
// and every other pipeline configuration — cache on, parallel, cache on
// with duplicated obligations — must reproduce its verdicts and
// proof-step counts exactly.
func TestPipelineMatchesSeedKernelOnRandomGoals(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		obls := randObligations(seed, 25)

		oracle := NewPipeline(Options{Workers: 1}).Run(context.Background(), obls)

		configs := []struct {
			name string
			opts Options
		}{
			{"w1_cache", Options{Workers: 1, Cache: true}},
			{"w4", Options{Workers: 4}},
			{"w4_cache", Options{Workers: 4, Cache: true}},
		}
		for _, cfg := range configs {
			got := NewPipeline(cfg.opts).Run(context.Background(), obls)
			for i := range obls {
				sameOutcome(t, fmt.Sprintf("seed=%d %s", seed, cfg.name), oracle.Results[i], got.Results[i])
			}
		}

		// Cache replay: duplicate the whole batch; the copies must come back
		// Cached with counts identical to the oracle's fresh proofs.
		dup := append(append([]Obligation{}, obls...), obls...)
		got := NewPipeline(Options{Workers: 4, Cache: true}).Run(context.Background(), dup)
		if got.Cached() != len(obls) {
			t.Errorf("seed=%d: duplicated batch cached %d obligations, want %d", seed, got.Cached(), len(obls))
		}
		for i := range obls {
			sameOutcome(t, fmt.Sprintf("seed=%d dup-orig", seed), oracle.Results[i], got.Results[i])
			sameOutcome(t, fmt.Sprintf("seed=%d dup-copy", seed), oracle.Results[i], got.Results[i+len(obls)])
			if !got.Results[i+len(obls)].Cached {
				t.Errorf("seed=%d: duplicate %d not served from cache", seed, i)
			}
		}
	}
}

// TestStandardSuiteKernelsAgree runs the full standard suite sequentially
// without the cache and on the parallel cached pipeline: everything proves
// under both, with identical step counts, and the lex product's factor
// laws hit the cache.
func TestStandardSuiteKernelsAgree(t *testing.T) {
	obls, err := StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewPipeline(Options{Workers: 1}).Run(context.Background(), obls)
	if !oracle.AllProved() {
		t.Fatalf("sequential run failed %d obligations", oracle.Failed())
	}
	got := NewPipeline(Options{Workers: 4, Cache: true}).Run(context.Background(), obls)
	if !got.AllProved() {
		t.Fatalf("parallel cached pipeline failed %d obligations", got.Failed())
	}
	for i := range obls {
		sameOutcome(t, "suite", oracle.Results[i], got.Results[i])
	}
	if got.Cached() == 0 {
		t.Error("standard suite produced no cache hits (factor laws should dedupe)")
	}
}
