package store

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/prov"
	"repro/internal/value"
)

// maxAggAnts bounds the antecedents an aggregate group records: an
// aggregate over a large group cites its first contributors rather than
// growing an unbounded lineage list.
const maxAggAnts = 16

// AggGroup is one group of an aggregate rule: the values of its
// non-aggregate head arguments and the fold of the aggregated variable
// over the group's frames.
type AggGroup struct {
	Key  string    // value.Tuple.Key of the group values
	Ants []prov.ID // distinct antecedent tuple versions, at most maxAggAnts

	vals value.Tuple // non-aggregate head values
	best value.V     // min, max or sum so far
	n    int64       // frames folded (count<>)
}

// Head assembles the group's head tuple for plan p: the group values in
// the non-aggregate columns and the folded aggregate at p.AggIdx.
func (g *AggGroup) Head(p *ndlog.Plan) value.Tuple {
	out := make(value.Tuple, len(p.HeadExprs))
	gi := 0
	for i := range out {
		if i != p.AggIdx {
			out[i] = g.vals[gi]
			gi++
		} else if p.AggKind == "count" {
			out[i] = value.Int(g.n)
		} else {
			out[i] = g.best
		}
	}
	return out
}

// addAnts records the distinct ids not yet held, up to maxAggAnts.
func (g *AggGroup) addAnts(ids []prov.ID) {
next:
	for _, id := range ids {
		if len(g.Ants) >= maxAggAnts {
			return
		}
		for _, have := range g.Ants {
			if have == id {
				continue next
			}
		}
		g.Ants = append(g.Ants, id)
	}
}

// Aggregate runs x's aggregate plan and folds every satisfying frame into
// the group of its non-aggregate head values: min and max keep the
// extreme value, sum adds integers (any other value is an error), and
// count counts frames. seed pre-binds the plan's SeedSlots, as in Run.
// ants, when non-nil, returns the antecedent versions of the frame being
// folded; it is called only while the frame's group holds fewer than
// maxAggAnts of them. Groups come back in first-seen order, which is
// deterministic for a given scan order, together with the number of
// candidate tuples probed.
func Aggregate(x *Exec, ts TableSource, seed []value.V, ants func() []prov.ID) ([]*AggGroup, int64, error) {
	p := x.Plan
	if p.AggIdx < 0 {
		return nil, 0, fmt.Errorf("store: rule %s is not an aggregate rule", p.Rule.Label)
	}
	groups := map[string]*AggGroup{}
	var order []*AggGroup
	probes, err := x.Run(ts, nil, seed, func(frame []value.V) error {
		vals := make(value.Tuple, 0, len(p.HeadExprs)-1)
		for i, ce := range p.HeadExprs {
			if i == p.AggIdx {
				continue
			}
			v, err := ce.Eval(x.Env())
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		var av value.V
		if p.AggSlot >= 0 {
			av = frame[p.AggSlot]
		}
		if p.AggKind == "sum" && av.K != value.KindInt {
			return fmt.Errorf("store: rule %s: sum over non-integer", p.Rule.Label)
		}
		k := vals.Key()
		g, ok := groups[k]
		switch {
		case !ok:
			g = &AggGroup{Key: k, vals: vals, best: av}
			groups[k] = g
			order = append(order, g)
		case p.AggKind == "min" && av.Compare(g.best) < 0,
			p.AggKind == "max" && av.Compare(g.best) > 0:
			g.best = av
		case p.AggKind == "sum":
			g.best = value.Int(g.best.I + av.I)
		}
		g.n++
		if ants != nil && len(g.Ants) < maxAggAnts {
			g.addAnts(ants())
		}
		return nil
	})
	return order, probes, err
}
