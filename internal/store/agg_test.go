package store

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/prov"
	"repro/internal/value"
)

// aggFixture parses src, loads each predicate's tuples into a fresh
// table, and returns the analysis and the tables.
func aggFixture(t *testing.T, src string, tuples map[string][]value.Tuple) (*ndlog.Analysis, execSource) {
	t.Helper()
	an, err := ndlog.Analyze(ndlog.MustParse("agg", src))
	if err != nil {
		t.Fatal(err)
	}
	ts := execSource{}
	for pred, tups := range tuples {
		tb := New(pred, len(tups[0]), nil, 0)
		for _, tup := range tups {
			if _, err := tb.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		ts[pred] = tb
	}
	return an, ts
}

// heads runs the fold of rule label and renders each group's head tuple
// in the order the groups come back.
func heads(t *testing.T, an *ndlog.Analysis, ts TableSource, label string) []string {
	t.Helper()
	for _, r := range an.Prog.Rules {
		if r.Label != label {
			continue
		}
		plan := an.Plans[r].Full
		groups, _, err := Aggregate(NewExec(plan), ts, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var out []string
		for _, g := range groups {
			out = append(out, g.Head(plan).String())
		}
		return out
	}
	t.Fatalf("no rule %s", label)
	return nil
}

// TestAggregateFold drives the fold both evaluators share: min, max, sum
// and count per group, groups in first-seen order, sum over a string
// rejected wherever the string appears in the group, and a rule without
// an aggregate refused.
func TestAggregateFold(t *testing.T) {
	e := func(s, d string, c int64) value.Tuple {
		return value.Tuple{value.Addr(s), value.Addr(d), value.Int(c)}
	}
	an, ts := aggFixture(t, `
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(lo, infinity, infinity, keys(1)).
materialize(hi, infinity, infinity, keys(1)).
materialize(tot, infinity, infinity, keys(1)).
materialize(cnt, infinity, infinity, keys(1)).
materialize(two, infinity, infinity, keys(1,2)).
a1 lo(@S,min<C>) :- e(@S,D,C).
a2 hi(@S,max<C>) :- e(@S,D,C).
a3 tot(@S,sum<C>) :- e(@S,D,C).
a4 cnt(@S,count<D>) :- e(@S,D,C).
p1 two(@S,D) :- e(@S,D,C).
`, map[string][]value.Tuple{"e": {
		e("b", "a", 2), e("a", "b", 3), e("a", "c", 1), e("b", "d", 5), e("a", "d", 7),
	}})
	for _, c := range []struct {
		label string
		want  string
	}{
		{"a1", "(b,2) (a,1)"},
		{"a2", "(b,5) (a,7)"},
		{"a3", "(b,7) (a,11)"},
		{"a4", "(b,2) (a,3)"},
	} {
		if got := strings.Join(heads(t, an, ts, c.label), " "); got != c.want {
			t.Errorf("%s: groups %s, want %s", c.label, got, c.want)
		}
	}
	for _, r := range an.Prog.Rules {
		if r.Label == "p1" {
			if _, _, err := Aggregate(NewExec(an.Plans[r].Full), ts, nil, nil); err == nil {
				t.Error("fold accepted a rule without an aggregate")
			}
		}
	}

	// sum<> over a string fails when the string opens a group and when it
	// joins an integer group.
	for name, ws := range map[string][]value.Tuple{
		"first": {{value.Addr("a"), value.Str("x")}},
		"later": {{value.Addr("a"), value.Int(1)}, {value.Addr("a"), value.Str("x")}},
	} {
		an, ts := aggFixture(t, `
materialize(w, infinity, infinity, keys(1,2)).
materialize(tot, infinity, infinity, keys(1)).
s1 tot(@S,sum<C>) :- w(@S,C).
`, map[string][]value.Tuple{"w": ws})
		plan := an.Plans[an.Prog.Rules[0]].Full
		_, _, err := Aggregate(NewExec(plan), ts, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "sum over non-integer") {
			t.Errorf("%s: err = %v, want sum over non-integer", name, err)
		}
	}
}

// TestAggregateAntecedentCap: a group keeps the distinct antecedents its
// frames report, in first-seen order, up to 16, and the fold stops
// asking once the group is full.
func TestAggregateAntecedentCap(t *testing.T) {
	var ws []value.Tuple
	for i := int64(0); i < 20; i++ {
		ws = append(ws, value.Tuple{value.Addr("a"), value.Int(i)})
	}
	an, ts := aggFixture(t, `
materialize(w, infinity, infinity, keys(1,2)).
materialize(cnt, infinity, infinity, keys(1)).
c1 cnt(@S,count<C>) :- w(@S,C).
`, map[string][]value.Tuple{"w": ws})
	plan := an.Plans[an.Prog.Rules[0]].Full
	calls := 0
	// Frame i cites one fresh version, 100+i, and version 1 every time.
	groups, _, err := Aggregate(NewExec(plan), ts, nil, func() []prov.ID {
		calls++
		return []prov.ID{prov.ID(99 + calls), 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Head(plan).String() != "(a,20)" {
		t.Fatalf("groups = %v, want one group (a,20)", groups)
	}
	want := []prov.ID{100, 1}
	for id := prov.ID(101); len(want) < 16; id++ {
		want = append(want, id)
	}
	if got := groups[0].Ants; !slices.Equal(got, want) {
		t.Fatalf("ants = %v, want %v", got, want)
	}
	// Frames 0-14 fill the 16 slots; frames 15-19 are not asked.
	if calls != 15 {
		t.Errorf("ants called %d times, want 15", calls)
	}
}
