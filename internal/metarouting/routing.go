package metarouting

import (
	"fmt"

	"repro/internal/netgraph"
	"repro/internal/value"
)

// LEdge is a directed link carrying an algebra label.
type LEdge struct {
	Src, Dst string
	Label    value.V
}

// LabeledTopo is a topology whose links carry algebra labels.
type LabeledTopo struct {
	Nodes []string
	Edges []LEdge
}

// LabelCosts lifts a netgraph topology into a labeled topology by mapping
// each link's integer cost through fn (identity for additive algebras).
func LabelCosts(t *netgraph.Topology, fn func(cost int64) value.V) LabeledTopo {
	lt := LabeledTopo{Nodes: append([]string(nil), t.Nodes...)}
	for _, l := range t.Links {
		lt.Edges = append(lt.Edges, LEdge{Src: l.Src, Dst: l.Dst, Label: fn(l.Cost)})
	}
	return lt
}

// Solution assigns each node its signature toward the destination.
type Solution map[string]value.V

// SolveResult reports a routing computation.
type SolveResult struct {
	Sigs      Solution
	Converged bool
	Rounds    int
}

// Solve runs the generalized distance-vector iteration for the algebra
// over the labeled topology toward dest: each round every node adopts the
// most preferred of {origin if dest} ∪ {label ⊕ neighbor's signature}.
// For monotone algebras the iteration reaches a fixed point within
// |nodes| rounds (the metarouting convergence theorem the axioms exist
// for); non-monotone algebras may oscillate until maxRounds.
func Solve(a Algebra, t LabeledTopo, dest string, maxRounds int) SolveResult {
	phi := a.Prohibited()
	cur := Solution{}
	for _, n := range t.Nodes {
		cur[n] = phi
	}
	origin := phi
	if len(a.Origins()) > 0 {
		origin = a.Origins()[0]
	}
	cur[dest] = origin

	adj := map[string][]LEdge{}
	for _, e := range t.Edges {
		adj[e.Src] = append(adj[e.Src], e)
	}

	for round := 1; round <= maxRounds; round++ {
		next := Solution{}
		changed := false
		for _, u := range t.Nodes {
			best := phi
			if u == dest {
				best = origin
			}
			for _, e := range adj[u] {
				cand := a.Apply(e.Label, cur[e.Dst])
				if Strictly(a, cand, best) {
					best = cand
				}
			}
			next[u] = best
			if !best.Equal(cur[u]) {
				changed = true
			}
		}
		cur = next
		if !changed {
			return SolveResult{Sigs: cur, Converged: true, Rounds: round}
		}
	}
	return SolveResult{Sigs: cur, Converged: false, Rounds: maxRounds}
}

// String renders a solution deterministically.
func (s Solution) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s:%v ", k, s[k])
	}
	return out
}
