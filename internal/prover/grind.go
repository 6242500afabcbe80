package prover

import (
	"sort"

	"repro/internal/logic"
)

// grind search bounds. Grind is best-effort automation: exceeding a bound
// leaves goals open rather than looping.
const (
	grindMaxDepth     = 24
	grindMaxInstTries = 8
	grindMaxBranches  = 64
)

// Grind is the automated strategy (PVS `grind`): it repeatedly skolemizes,
// flattens, runs the decision procedure, expands non-recursive definitions,
// splits, and heuristically instantiates quantifiers by matching atoms in
// the goal. It either closes the current goal or leaves the residual
// subgoals open.
func (p *Prover) Grind() error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step("(grind)")()
	wasAuto := p.inAuto
	p.inAuto = true
	defer func() { p.inAuto = wasAuto }()

	// Computed once per grind: the sorted auto-expandable definitions (the
	// sort also makes expansion order deterministic).
	p.nonRecN = p.nonRecSortedNames()

	g := p.pop()
	residual := p.solve(g, grindMaxDepth)
	p.push(residual...)
	return nil
}

// nonRecSortedNames returns the auto-expandable definition names in sorted
// order.
func (p *Prover) nonRecSortedNames() []string {
	nonRec := p.nonRecursiveDefs()
	names := make([]string, 0, len(nonRec))
	for name := range nonRec {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// nonRecursiveDefs returns the definitions that never (transitively) reach
// themselves, which grind may safely auto-expand.
func (p *Prover) nonRecursiveDefs() map[string]bool {
	if p.Theory == nil {
		return nil
	}
	reach := map[string]map[string]bool{}
	for _, d := range p.Theory.Inductives {
		reach[d.Name] = logic.Predicates(d.Body)
	}
	// Transitive closure.
	for changed := true; changed; {
		changed = false
		for name, set := range reach {
			for callee := range set {
				for indirect := range reach[callee] {
					if !set[indirect] {
						set[indirect] = true
						changed = true
					}
				}
			}
			reach[name] = set
		}
	}
	out := map[string]bool{}
	for name, set := range reach {
		if !set[name] {
			out[name] = true
		}
	}
	return out
}

// solve attempts to close g, returning residual open goals (nil if closed).
func (p *Prover) solve(g Sequent, depth int) []Sequent {
	if depth <= 0 {
		return []Sequent{g}
	}
	// Coarse cancellation boundary: a fired context makes grind hand every
	// remaining sub-goal back unsolved (the proof stays open, never QED),
	// and the script loop surfaces ErrCancelled.
	if p.cancelled() {
		return []Sequent{g}
	}
	// Saturate with skolemization + flattening.
	cur := &g
	for {
		ng, closed := p.flattenFully(*cur)
		if closed {
			return nil
		}
		cur = ng
		sk, changed := p.skolemizeOnce(*cur)
		if !changed {
			break
		}
		cur = &sk
	}
	// Decision procedure.
	ng, closed := p.assertGoal(*cur)
	if closed {
		return nil
	}
	cur = ng

	// Expand non-recursive definitions once.
	if expanded, ok := p.autoExpand(*cur); ok {
		return p.solve(expanded, depth-1)
	}

	// Branch on the first splittable formula; every branch must close.
	if subs, ok := p.splitGoal(*cur); ok {
		if len(subs) > grindMaxBranches {
			return []Sequent{*cur}
		}
		var residual []Sequent
		for _, sg := range subs {
			residual = append(residual, p.solve(sg, depth-1)...)
		}
		return residual
	}

	// Heuristic quantifier instantiation.
	for _, cand := range p.instCandidates(*cur) {
		trial := p.solve(cand, depth-1)
		if trial == nil {
			return nil
		}
	}
	return []Sequent{*cur}
}

// autoExpand expands all occurrences of non-recursive definitions.
func (p *Prover) autoExpand(g Sequent) (Sequent, bool) {
	nonRec := p.nonRecN
	if nonRec == nil {
		nonRec = p.nonRecSortedNames()
	}
	if len(nonRec) == 0 {
		return g, false
	}
	ng := g.Clone()
	count := 0
	rewrite := func(f logic.Formula) logic.Formula {
		for _, name := range nonRec {
			def, ok := p.Theory.Lookup(name)
			if !ok {
				continue
			}
			f = replacePred(f, name, func(pr logic.Pred) logic.Formula {
				body, err := def.Instantiate(pr.Args)
				if err != nil {
					return pr
				}
				count++
				p.prim()
				return body
			})
		}
		return f
	}
	for i, f := range ng.Ante {
		ng.Ante[i] = rewrite(f)
	}
	for i, f := range ng.Cons {
		ng.Cons[i] = rewrite(f)
	}
	if count == 0 {
		return g, false
	}
	return ng, true
}

// splitGoal performs the first applicable branching rule, like Split but
// without step accounting (grind internal).
func (p *Prover) splitGoal(g Sequent) ([]Sequent, bool) {
	for i, f := range g.Cons {
		switch x := f.(type) {
		case logic.And:
			subs := make([]Sequent, len(x.Fs))
			for j, c := range x.Fs {
				ng := g.Clone()
				ng.Cons[i] = c
				subs[j] = ng
			}
			p.prim()
			return subs, true
		case logic.Iff:
			g1 := g.Clone()
			g1.Cons[i] = logic.Implies{L: x.L, R: x.R}
			g2 := g.Clone()
			g2.Cons[i] = logic.Implies{L: x.R, R: x.L}
			p.prim()
			return []Sequent{g1, g2}, true
		}
	}
	for i, f := range g.Ante {
		switch x := f.(type) {
		case logic.Or:
			subs := make([]Sequent, len(x.Fs))
			for j, c := range x.Fs {
				ng := g.Clone()
				ng.Ante[i] = c
				subs[j] = ng
			}
			p.prim()
			return subs, true
		case logic.Implies:
			g1 := g.Clone()
			_ = g1.Remove(-(i + 1))
			g1.Cons = append(g1.Cons, x.L)
			g2 := g.Clone()
			g2.Ante[i] = x.R
			p.prim()
			return []Sequent{g1, g2}, true
		}
	}
	return nil, false
}

// instCandidates proposes goals obtained by instantiating an antecedent
// FORALL (or consequent EXISTS) with substitutions found by matching its
// atoms against atoms present in the sequent.
func (p *Prover) instCandidates(g Sequent) []Sequent {
	var out []Sequent
	// Atoms available for matching.
	var anteAtoms, consAtoms []logic.Pred
	for _, f := range g.Ante {
		if pr, ok := f.(logic.Pred); ok {
			anteAtoms = append(anteAtoms, pr)
		}
	}
	for _, f := range g.Cons {
		if pr, ok := f.(logic.Pred); ok {
			consAtoms = append(consAtoms, pr)
		}
	}

	tryQuant := func(idx int, vars []logic.Var, body logic.Formula, pool []logic.Pred) {
		bound := map[string]bool{}
		for _, v := range vars {
			bound[v.Name] = true
		}
		patterns := collectAtoms(body)
		for _, pat := range patterns {
			for _, atom := range pool {
				if len(out) >= grindMaxInstTries {
					return
				}
				s := logic.Subst{}
				if !logic.MatchPred(pat, atom, s) {
					continue
				}
				// Keep only bindings for the quantified variables, and
				// require all of them to be bound.
				terms := make([]logic.Term, len(vars))
				complete := true
				for i, v := range vars {
					t, ok := s[v.Name]
					if !ok {
						complete = false
						break
					}
					terms[i] = t
				}
				if !complete {
					continue
				}
				inst := logic.Subst{}
				for i, v := range vars {
					inst[v.Name] = terms[i]
				}
				ng := g.Clone()
				_ = ng.Replace(idx, inst.Apply(body))
				p.prim()
				out = append(out, ng)
			}
		}
	}

	for i, f := range g.Ante {
		if fa, ok := f.(logic.Forall); ok {
			tryQuant(-(i + 1), fa.Vars, fa.Body, anteAtoms)
			// Also try matching against consequent atoms: useful when the
			// universal's conclusion should align with the goal.
			tryQuant(-(i + 1), fa.Vars, fa.Body, consAtoms)
		}
	}
	for i, f := range g.Cons {
		if ex, ok := f.(logic.Exists); ok {
			tryQuant(i+1, ex.Vars, ex.Body, anteAtoms)
		}
	}
	if len(out) > grindMaxInstTries {
		out = out[:grindMaxInstTries]
	}
	return out
}

// collectAtoms gathers the predicate atoms of a formula (any polarity).
func collectAtoms(f logic.Formula) []logic.Pred {
	var atoms []logic.Pred
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch x := f.(type) {
		case logic.Pred:
			atoms = append(atoms, x)
		case logic.Not:
			walk(x.F)
		case logic.And:
			for _, g := range x.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range x.Fs {
				walk(g)
			}
		case logic.Implies:
			walk(x.L)
			walk(x.R)
		case logic.Iff:
			walk(x.L)
			walk(x.R)
		case logic.Forall:
			walk(x.Body)
		case logic.Exists:
			walk(x.Body)
		}
	}
	walk(f)
	return atoms
}
