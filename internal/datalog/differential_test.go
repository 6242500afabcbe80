package datalog

import (
	"fmt"
	"testing"

	"repro/internal/ndlog"
)

// differential test programs: each exercises a different plan shape —
// recursion with functions, aggregates, negation, delete rules, and
// independent rules probing one shared index.
var diffPrograms = []struct {
	name  string
	src   string
	facts []string
}{
	{"pathvector", pathVectorSrc, []string{
		"link(@a,b,1)", "link(@b,a,1)", "link(@b,c,1)", "link(@c,b,1)",
		"link(@c,d,1)", "link(@d,c,1)", "link(@a,d,5)", "link(@d,a,5)",
	}},
	{"aggregates", `
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(lo, infinity, infinity, keys(1,2)).
materialize(hi, infinity, infinity, keys(1,2)).
materialize(n, infinity, infinity, keys(1,2)).
a1 lo(@S,min<C>) :- e(@S,D,C).
a2 hi(@S,max<C>) :- e(@S,D,C).
a3 n(@S,count<D>) :- e(@S,D,C).
`, []string{
		"e(@a,b,3)", "e(@a,c,1)", "e(@a,d,7)", "e(@b,a,2)", "e(@b,d,2)",
	}},
	{"negation", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(block, infinity, infinity, keys(1,2)).
materialize(two, infinity, infinity, keys(1,2)).
materialize(only, infinity, infinity, keys(1,2)).
r1 two(@A,C) :- e(@A,B), e(@B,C).
r2 only(@A,C) :- two(@A,C), !block(@A,C).
`, []string{
		"e(@a,b)", "e(@b,c)", "e(@b,d)", "e(@c,d)", "block(@a,c)",
	}},
	{"deletes", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(down, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2)).
materialize(pair, infinity, infinity, keys(1,2)).
r1 route(@A,B) :- e(@A,B).
rd delete route(@A,B) :- down(@A,B), e(@A,B).
r2 pair(@A,C) :- route(@A,B), route(@B,C).
`, []string{
		"e(@a,b)", "e(@b,c)", "e(@c,d)", "down(@b,c)",
	}},
	// ra and rb are independent rules of one stratum that both probe e
	// through its index on column 0: the index the first probe builds
	// must serve the second rule's probes too.
	{"sharedindex", `
materialize(e, infinity, infinity, keys(1,2)).
materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
ra a(@X,Z) :- e(@X,Y), e(@Y,Z).
rb b(@X,Z) :- e(@X,Y), e(@Y,Z), X!=Z.
`, []string{
		"e(@n1,n2)", "e(@n2,n3)", "e(@n3,n4)", "e(@n4,n1)", "e(@n2,n4)",
	}},
}

func buildDiffEngine(t *testing.T, src string, facts []string, mode Mode) *Engine {
	t.Helper()
	full := src + "\n"
	for _, f := range facts {
		full += f + ".\n"
	}
	prog, err := ndlog.Parse("diff", full)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.Mode = mode
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func snapshot(e *Engine) map[string]string {
	out := map[string]string{}
	for pred := range e.An.Derived {
		s := ""
		for _, tp := range e.Query(pred) {
			s += tp.String() + " "
		}
		out[pred] = s
	}
	return out
}

// TestParallelMatchesSequential: on every differential program,
// semi-naive evaluation, which joins each round's delta through the
// rules' delta plans, must reach the same relations as naive evaluation,
// which re-runs every full plan each round. The engine evaluates every
// stratum sequentially; the test keeps its name from when it compared a
// parallel evaluation of independent rules against the sequential one.
func TestParallelMatchesSequential(t *testing.T) {
	for _, p := range diffPrograms {
		t.Run(p.name, func(t *testing.T) {
			sn := buildDiffEngine(t, p.src, p.facts, SemiNaive)
			nv := buildDiffEngine(t, p.src, p.facts, Naive)
			sSnap, nSnap := snapshot(sn), snapshot(nv)
			for pred, want := range nSnap {
				if sSnap[pred] != want {
					t.Errorf("%s: naive %q, semi-naive %q", pred, want, sSnap[pred])
				}
			}
			if sn.Stats.NewTuples == 0 {
				t.Error("degenerate test vector: no tuples derived")
			}
		})
	}
}

// TestDifferentialRandomTopologies stresses the path-vector program on
// randomized graphs: semi-naive evaluation, which joins each round's
// delta through the rules' delta plans, must reach the same relations as
// naive evaluation, which re-runs every full plan each round.
func TestDifferentialRandomTopologies(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		state := seed * 0x9e3779b97f4a7c15
		next := func(n uint64) uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return (state >> 33) % n
		}
		nodes := []string{"a", "b", "c", "d", "e"}
		var facts []string
		for i := 0; i < 8; i++ {
			s := nodes[next(uint64(len(nodes)))]
			d := nodes[next(uint64(len(nodes)))]
			if s == d {
				continue
			}
			c := next(9) + 1
			facts = append(facts, fmt.Sprintf("link(@%s,%s,%d)", s, d, c))
		}
		sn := buildDiffEngine(t, pathVectorSrc, facts, SemiNaive)
		nv := buildDiffEngine(t, pathVectorSrc, facts, Naive)
		sSnap, nSnap := snapshot(sn), snapshot(nv)
		for pred, want := range nSnap {
			if sSnap[pred] != want {
				t.Fatalf("seed %d, %s:\n naive      %q\n semi-naive %q", seed, pred, want, sSnap[pred])
			}
		}
	}
}
