package datalog

import (
	"fmt"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/prov"
	"repro/internal/value"
)

// Tests of incremental view maintenance: every churn sequence is applied
// both to an incrementally maintained engine and to the retained
// full-recompute oracle (ScalarDelete), and all derived relations must
// agree after every step.

const reachSrc = `
r1 reach(@S,D) :- link(@S,D).
r2 reach(@S,D) :- link(@S,Z), reach(@Z,D).
`

const connSrc = `
r1 conn(@S,D,C) :- link(@S,D,C), not down(@S,D).
r2 best(@S,min<C>) :- conn(@S,D,C).
r3 degree(@S,count<*>) :- conn(@S,D,C).
`

func newEngine(t *testing.T, name, src string) *Engine {
	t.Helper()
	prog, err := ndlog.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// derivedSnapshot returns every derived relation's sorted contents.
func derivedSnapshot(e *Engine) map[string]string {
	out := map[string]string{}
	for pred := range e.An.Derived {
		s := ""
		for _, tup := range e.Query(pred) {
			s += tup.String() + "\n"
		}
		out[pred] = s
	}
	return out
}

func requireAgree(t *testing.T, step int, inc, oracle *Engine) {
	t.Helper()
	got, want := derivedSnapshot(inc), derivedSnapshot(oracle)
	for pred, w := range want {
		if got[pred] != w {
			t.Fatalf("step %d: %s diverged\nincremental:\n%swant (oracle):\n%s", step, pred, got[pred], w)
		}
	}
}

// churn runs a deterministic insert/retract sequence over universe on an
// incremental engine and the recompute oracle, checking agreement after
// every Update. Deletions dominate (the path under test). When the
// program's shape allows maintenance, every incremental Update must have
// maintained rather than fallen back to recompute, or the comparison
// would pass vacuously (recompute against recompute).
func churn(t *testing.T, name, src string, universe []Change, seed uint64, steps int) {
	t.Helper()
	inc := newEngine(t, name, src)
	oracle := newEngine(t, name+"-oracle", src)
	oracle.ScalarDelete = true
	maintainable := inc.ivmStatic().fallback == ""

	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}

	present := make([]bool, len(universe))
	// Start from a populated state.
	var init []Change
	for i, ch := range universe {
		if next(4) != 0 {
			present[i] = true
			init = append(init, Change{Pred: ch.Pred, Tup: ch.Tup})
		}
	}
	for _, eng := range []*Engine{inc, oracle} {
		for _, ch := range init {
			if err := eng.Insert(ch.Pred, ch.Tup); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	requireAgree(t, -1, inc, oracle)

	for step := 0; step < steps; step++ {
		// 1-3 changes per batch; prefer deleting present tuples.
		batch := 1 + next(3)
		var changes []Change
		for b := 0; b < batch; b++ {
			i := next(len(universe))
			if present[i] {
				// Delete-heavy: present tuples are retracted 3 of 4 times.
				if next(4) != 0 {
					present[i] = false
					changes = append(changes, Change{Pred: universe[i].Pred, Tup: universe[i].Tup, Del: true})
				}
				continue
			}
			present[i] = true
			changes = append(changes, Change{Pred: universe[i].Pred, Tup: universe[i].Tup})
		}
		if len(changes) == 0 {
			continue
		}
		if err := inc.Update(changes); err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		if err := oracle.Update(changes); err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		if r := inc.FallbackReason(); maintainable && r != "" {
			t.Fatalf("step %d: incremental engine fell back to recompute: %s", step, r)
		}
		if r := oracle.FallbackReason(); r != "scalar-delete oracle" {
			t.Fatalf("step %d: oracle fallback reason = %q, want the scalar-delete oracle", step, r)
		}
		requireAgree(t, step, inc, oracle)
	}
	if maintainable && inc.Stats.Fallbacks != 0 {
		t.Fatalf("incremental engine counted %d fallbacks", inc.Stats.Fallbacks)
	}
	if oracle.Stats.Fallbacks == 0 {
		t.Fatal("oracle never recomputed")
	}
}

// linkUniverse2 is every directed link among n nodes (arity 2).
func linkUniverse2(n int) []Change {
	var out []Change
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			out = append(out, Change{Pred: "link", Tup: value.Tuple{
				value.Addr(fmt.Sprintf("n%d", i)), value.Addr(fmt.Sprintf("n%d", j)),
			}})
		}
	}
	return out
}

func TestUpdateRecursiveReach(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		churn(t, "reach", reachSrc, linkUniverse2(5), seed, 60)
	}
}

func TestUpdateNegationAndAggregates(t *testing.T) {
	var universe []Change
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			s, d := value.Addr(fmt.Sprintf("n%d", i)), value.Addr(fmt.Sprintf("n%d", j))
			universe = append(universe, Change{Pred: "link", Tup: value.Tuple{s, d, value.Int(int64(1 + (i+3*j)%5))}})
			universe = append(universe, Change{Pred: "down", Tup: value.Tuple{s, d}})
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		churn(t, "conn", connSrc, universe, seed, 60)
	}
}

func TestUpdatePathVectorChurn(t *testing.T) {
	var universe []Change
	nodes := []string{"a", "b", "c", "d"}
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			universe = append(universe, Change{Pred: "link", Tup: value.Tuple{
				value.Addr(nodes[i]), value.Addr(nodes[j]), value.Int(int64(1 + (i+2*j)%4)),
			}})
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		churn(t, "pv", pathVectorSrc, universe, seed, 40)
	}
}

// TestUpdateRederiveProvenance checks that a tuple that survives a DRed
// over-delete through an alternative derivation is re-recorded under the
// rule's "/rederive" provenance label.
func TestUpdateRederiveProvenance(t *testing.T) {
	e := newEngine(t, "reach-prov", reachSrc)
	rec := prov.New()
	e.AttachProv(rec)
	links := [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}
	for _, l := range links {
		if err := e.Insert("link", value.Tuple{value.Addr(l[0]), value.Addr(l[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Deleting a->b over-deletes reach(a,c) (derived through b), which
	// must be re-derived from the direct a->c link.
	del := Change{Pred: "link", Tup: value.Tuple{value.Addr("a"), value.Addr("b")}, Del: true}
	if err := e.Update([]Change{del}); err != nil {
		t.Fatal(err)
	}
	want := value.Tuple{value.Addr("a"), value.Addr("c")}
	if !e.Relation("reach").Contains(want) {
		t.Fatalf("reach(a,c) lost after deleting link(a,b); reach=%v", e.Query("reach"))
	}
	found := false
	for i := 1; i < rec.Len(); i++ {
		en := rec.Get(prov.ID(i))
		if lbl := rec.Str(en.Lbl); lbl == "r1/rederive" || lbl == "r2/rederive" {
			found = true
		}
	}
	if !found {
		t.Fatal("no /rederive provenance label recorded for the re-derived tuple")
	}
}

// TestUpdateMatchesFreshRun cross-checks the incremental state against a
// brand-new engine evaluated from scratch on the final base tables.
func TestUpdateMatchesFreshRun(t *testing.T) {
	e := newEngine(t, "reach-fresh", reachSrc)
	universe := linkUniverse2(5)
	for i, ch := range universe {
		if i%3 != 0 {
			if err := e.Insert(ch.Pred, ch.Tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var changes []Change
	for i, ch := range universe {
		switch i % 5 {
		case 0:
			changes = append(changes, Change{Pred: ch.Pred, Tup: ch.Tup})
		case 1, 2:
			changes = append(changes, Change{Pred: ch.Pred, Tup: ch.Tup, Del: true})
		}
	}
	if err := e.Update(changes); err != nil {
		t.Fatal(err)
	}

	fresh := newEngine(t, "reach-fresh2", reachSrc)
	for _, tup := range e.Query("link") {
		if err := fresh.Insert("link", tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	requireAgree(t, 0, e, fresh)
}
