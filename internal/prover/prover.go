package prover

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
)

// ErrNoOpenGoal is returned by tactics invoked after the proof is complete.
var ErrNoOpenGoal = errors.New("prover: no open goal")

// ErrCancelled wraps the context error when a proof script is cut short;
// errors.Is(err, context.Canceled/DeadlineExceeded) also matches.
var ErrCancelled = errors.New("prover: cancelled")

// Prover is an interactive proof session over one theorem of a theory.
// Tactics act on the current goal (the top of the open-goal stack); a
// tactic that yields multiple subgoals pushes all of them, and the proof is
// complete (QED) when the stack empties.
//
// Step accounting follows the paper's reporting: Steps counts user-visible
// tactic invocations ("the bestPathStrong theorem takes 7 proof steps"),
// while PrimSteps counts primitive kernel inferences and AutoPrim those
// primitive inferences performed inside automated strategies (skosimp*,
// grind, assert's internal simplification), which is how E12 measures the
// paper's "two-thirds of the proof steps can be automated".
type Prover struct {
	Theory  *logic.Theory
	Theorem string

	goals []Sequent // open goals, top = current
	// Proved theorems of the session, available to Lemma alongside axioms.
	proved map[string]logic.Formula

	Steps     int
	PrimSteps int
	AutoPrim  int
	Trace     []string

	skCounter map[string]int
	started   time.Time
	Elapsed   time.Duration

	// inAuto marks that primitive steps are being driven by an automated
	// strategy, for AutoPrim accounting.
	inAuto bool

	// nonRecN is the sorted auto-expandable definition list, computed once
	// per Grind.
	nonRecN []string

	// Observability: per-tactic step counts, primitive-inference counts,
	// and durations (component "prover", labelled by tactic name). Nil
	// unless Instrument was called.
	col    *obs.Collector
	tracer *obs.Tracer

	// ctx, when non-nil and cancellable, bounds script execution: it is
	// polled at coarse boundaries (per script command; per grind sub-goal)
	// so the kernel's inner loops stay allocation-free. Set by
	// RunScriptCtx.
	ctx context.Context
}

// cancelled reports whether the session's context has fired. The nil/
// non-cancellable fast path is a pointer check.
func (p *Prover) cancelled() bool {
	return p.ctx != nil && p.ctx.Err() != nil
}

// Instrument attaches a metrics collector and/or trace stream to the
// session. Each tactic invocation then records one MTacticSteps increment,
// the primitive inferences it performed (MTacticPrim), its duration
// (MTacticMs), and an EvProofStep trace event.
func (p *Prover) Instrument(c *obs.Collector, t *obs.Tracer) {
	p.col, p.tracer = c, t
}

// New creates a proof session for the named theorem of the theory.
func New(th *logic.Theory, theorem string) (*Prover, error) {
	goal, ok := th.TheoremByName(theorem)
	if !ok {
		return nil, fmt.Errorf("prover: theory %s has no theorem %q", th.Name, theorem)
	}
	p := &Prover{
		Theory:    th,
		Theorem:   theorem,
		goals:     []Sequent{{Cons: []logic.Formula{goal.Goal}}},
		proved:    map[string]logic.Formula{},
		skCounter: map[string]int{},
		started:   time.Now(),
	}
	return p, nil
}

// NewGoal creates a proof session for an ad-hoc goal formula.
func NewGoal(th *logic.Theory, name string, goal logic.Formula) *Prover {
	return &Prover{
		Theory:    th,
		Theorem:   name,
		goals:     []Sequent{{Cons: []logic.Formula{goal}}},
		proved:    map[string]logic.Formula{},
		skCounter: map[string]int{},
		started:   time.Now(),
	}
}

// QED reports whether all goals have been discharged.
func (p *Prover) QED() bool {
	done := len(p.goals) == 0
	if done && p.Elapsed == 0 {
		p.Elapsed = time.Since(p.started)
	}
	return done
}

// Open returns the number of open goals.
func (p *Prover) Open() int { return len(p.goals) }

// Current returns the current goal sequent.
func (p *Prover) Current() (Sequent, error) {
	if len(p.goals) == 0 {
		return Sequent{}, ErrNoOpenGoal
	}
	return p.goals[len(p.goals)-1], nil
}

// noopDone is the disabled-path return of step: one shared closure so an
// uninstrumented session performs no allocation per tactic.
var noopDone = func() {}

// step records a user-visible tactic invocation and returns a completion
// function the tactic must defer: it attributes the primitive inferences
// and wall time spent inside the tactic to its per-tactic metrics.
func (p *Prover) step(name string) func() {
	p.Steps++
	p.Trace = append(p.Trace, name)
	if p.col == nil && p.tracer == nil {
		return noopDone
	}
	tac := tacticName(name)
	p.col.Counter("prover", obs.MTacticSteps, tac).Add(1)
	prim0 := p.PrimSteps
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		prim := int64(p.PrimSteps - prim0)
		p.col.Counter("prover", obs.MTacticPrim, tac).Add(prim)
		p.col.Histogram("prover", obs.MTacticMs, tac).Observe(d)
		if p.tracer != nil {
			p.tracer.Emit(obs.Event{Kind: obs.EvProofStep, Name: tac, N: prim, DurNs: int64(d)})
		}
	}
}

// tacticName extracts the bare tactic name from a trace entry:
// `(skosimp*)` -> `skosimp*`, `(expand "link") -> `expand`.
func tacticName(step string) string {
	s := strings.Trim(step, "()")
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	return s
}

func (p *Prover) prim() {
	p.PrimSteps++
	if p.inAuto {
		p.AutoPrim++
	}
}

// pop removes the current goal; push adds subgoals.
func (p *Prover) pop() Sequent {
	g := p.goals[len(p.goals)-1]
	p.goals = p.goals[:len(p.goals)-1]
	return g
}

func (p *Prover) push(gs ...Sequent) {
	p.goals = append(p.goals, gs...)
}

// pushSubgoals pushes subgoals so that the FIRST subgoal becomes the
// current goal (the stack top), matching the PVS convention that proof
// branches are attacked in order.
func (p *Prover) pushSubgoals(gs ...Sequent) {
	for i := len(gs) - 1; i >= 0; i-- {
		p.goals = append(p.goals, gs[i])
	}
}

// freshSkolem returns a fresh skolem constant (a nullary application) for
// the variable name base, PVS-style: S becomes S!1, then S!2, ...
func (p *Prover) freshSkolem(base string, avoid map[string]bool) logic.Term {
	for {
		p.skCounter[base]++
		name := base + "!" + strconv.Itoa(p.skCounter[base])
		if !avoid[name] {
			return logic.App{Fn: name}
		}
	}
}

// --- primitive simplification -------------------------------------------

// flattenOnce applies one round of non-branching sequent rules to g.
// It returns the resulting goals (nil if the goal closed) and whether
// anything changed.
func (p *Prover) flattenOnce(g Sequent) (out *Sequent, closed, changed bool) {
	// Axiom rule: some formula on both sides, or TRUE on the right /
	// FALSE on the left.
	for _, f := range g.Cons {
		if t, ok := f.(logic.TruthVal); ok && t.B {
			p.prim()
			return nil, true, true
		}
		if containsFormula(g.Ante, f) {
			p.prim()
			return nil, true, true
		}
	}
	for _, f := range g.Ante {
		if t, ok := f.(logic.TruthVal); ok && !t.B {
			p.prim()
			return nil, true, true
		}
	}

	for i, f := range g.Ante {
		switch x := f.(type) {
		case logic.And:
			ng := g.Clone()
			ng.Ante = append(ng.Ante[:i:i], append(append([]logic.Formula{}, x.Fs...), g.Ante[i+1:]...)...)
			p.prim()
			return &ng, false, true
		case logic.Not:
			ng := g.Clone()
			_ = ng.Remove(-(i + 1))
			ng.Cons = append(ng.Cons, x.F)
			p.prim()
			return &ng, false, true
		case logic.TruthVal:
			if x.B {
				ng := g.Clone()
				_ = ng.Remove(-(i + 1))
				p.prim()
				return &ng, false, true
			}
		case logic.Iff:
			ng := g.Clone()
			ng.Ante[i] = logic.Implies{L: x.L, R: x.R}
			ng.Ante = append(ng.Ante, logic.Implies{L: x.R, R: x.L})
			p.prim()
			return &ng, false, true
		}
	}
	for i, f := range g.Cons {
		switch x := f.(type) {
		case logic.Or:
			ng := g.Clone()
			ng.Cons = append(ng.Cons[:i:i], append(append([]logic.Formula{}, x.Fs...), g.Cons[i+1:]...)...)
			p.prim()
			return &ng, false, true
		case logic.Implies:
			ng := g.Clone()
			ng.Cons[i] = x.R
			ng.Ante = append(ng.Ante, x.L)
			p.prim()
			return &ng, false, true
		case logic.Not:
			ng := g.Clone()
			_ = ng.Remove(i + 1)
			ng.Ante = append(ng.Ante, x.F)
			p.prim()
			return &ng, false, true
		case logic.TruthVal:
			if !x.B {
				ng := g.Clone()
				_ = ng.Remove(i + 1)
				p.prim()
				return &ng, false, true
			}
		}
	}
	return &g, false, false
}

// flattenFully applies flattenOnce to fixpoint.
func (p *Prover) flattenFully(g Sequent) (out *Sequent, closed bool) {
	cur := g
	for {
		ng, cl, ch := p.flattenOnce(cur)
		if cl {
			return nil, true
		}
		if !ch {
			return ng, false
		}
		cur = *ng
	}
}

// skolemizeOnce replaces one consequent FORALL or antecedent EXISTS with a
// skolemized body. Returns changed=false if there is none.
func (p *Prover) skolemizeOnce(g Sequent) (Sequent, bool) {
	avoid := g.FreeVarSet()
	for i, f := range g.Ante {
		if ex, ok := f.(logic.Exists); ok {
			s := logic.Subst{}
			for _, v := range ex.Vars {
				s[v.Name] = p.freshSkolem(v.Name, avoid)
			}
			ng := g.Clone()
			ng.Ante[i] = s.Apply(ex.Body)
			p.prim()
			return ng, true
		}
	}
	for i, f := range g.Cons {
		if fa, ok := f.(logic.Forall); ok {
			s := logic.Subst{}
			for _, v := range fa.Vars {
				s[v.Name] = p.freshSkolem(v.Name, avoid)
			}
			ng := g.Clone()
			ng.Cons[i] = s.Apply(fa.Body)
			p.prim()
			return ng, true
		}
	}
	return g, false
}

// --- user tactics ---------------------------------------------------------

// Flatten applies all non-branching propositional rules (PVS `flatten`).
func (p *Prover) Flatten() error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step("(flatten)")()
	g := p.pop()
	ng, closed := p.flattenFully(g)
	if !closed {
		p.push(*ng)
	}
	return nil
}

// Skosimp repeatedly skolemizes and flattens until neither applies
// (PVS `skosimp*`).
func (p *Prover) Skosimp() error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step("(skosimp*)")()
	wasAuto := p.inAuto
	p.inAuto = true
	defer func() { p.inAuto = wasAuto }()

	g := p.pop()
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
	p.push(*cur)
	return nil
}

// Split performs one branching rule on the current goal (PVS `split`):
// a conjunction in the consequent, a disjunction or implication in the
// antecedent, or an IFF in the consequent. The leftmost applicable formula
// is chosen.
func (p *Prover) Split() error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step("(split)")()
	g := p.pop()

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
			p.pushSubgoals(subs...)
			return nil
		case logic.Iff:
			g1 := g.Clone()
			g1.Cons[i] = logic.Implies{L: x.L, R: x.R}
			g2 := g.Clone()
			g2.Cons[i] = logic.Implies{L: x.R, R: x.L}
			p.prim()
			p.pushSubgoals(g1, g2)
			return nil
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
			p.pushSubgoals(subs...)
			return nil
		case logic.Implies:
			g1 := g.Clone()
			_ = g1.Remove(-(i + 1))
			g1.Cons = append(g1.Cons, x.L)
			g2 := g.Clone()
			g2.Ante[i] = x.R
			p.prim()
			p.pushSubgoals(g1, g2)
			return nil
		}
	}
	p.push(g)
	return fmt.Errorf("prover: split: no branching formula in goal")
}

// Expand unfolds every occurrence of the named inductive definition in the
// current goal (PVS `expand "name"`). Unfolding uses the fixpoint
// equivalence P(x̄) ⇔ Body(x̄), which holds of the least fixed point, so it
// is sound in any polarity.
func (p *Prover) Expand(name string) error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	def, ok := p.Theory.Lookup(name)
	if !ok {
		return fmt.Errorf("prover: expand: no inductive definition %q", name)
	}
	defer p.step(fmt.Sprintf("(expand %q)", name))()
	g := p.pop()
	ng := g.Clone()
	count := 0
	var expandErr error
	rewrite := func(f logic.Formula) logic.Formula {
		return replacePred(f, name, func(pr logic.Pred) logic.Formula {
			body, err := def.Instantiate(pr.Args)
			if err != nil {
				expandErr = err
				return pr
			}
			count++
			p.prim()
			return body
		})
	}
	for i, f := range ng.Ante {
		ng.Ante[i] = rewrite(f)
	}
	for i, f := range ng.Cons {
		ng.Cons[i] = rewrite(f)
	}
	if expandErr != nil {
		p.push(g)
		return expandErr
	}
	if count == 0 {
		p.push(g)
		return fmt.Errorf("prover: expand: no occurrence of %q in goal", name)
	}
	p.push(ng)
	return nil
}

// replacePred rewrites every occurrence of predicate name in f via fn,
// without descending into the replacement (so recursive definitions unfold
// exactly one level).
func replacePred(f logic.Formula, name string, fn func(logic.Pred) logic.Formula) logic.Formula {
	switch x := f.(type) {
	case logic.Pred:
		if x.Name == name {
			return fn(x)
		}
		return x
	case logic.Not:
		return logic.Not{F: replacePred(x.F, name, fn)}
	case logic.And:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = replacePred(g, name, fn)
		}
		return logic.And{Fs: fs}
	case logic.Or:
		fs := make([]logic.Formula, len(x.Fs))
		for i, g := range x.Fs {
			fs[i] = replacePred(g, name, fn)
		}
		return logic.Or{Fs: fs}
	case logic.Implies:
		return logic.Implies{L: replacePred(x.L, name, fn), R: replacePred(x.R, name, fn)}
	case logic.Iff:
		return logic.Iff{L: replacePred(x.L, name, fn), R: replacePred(x.R, name, fn)}
	case logic.Forall:
		return logic.Forall{Vars: x.Vars, Body: replacePred(x.Body, name, fn)}
	case logic.Exists:
		return logic.Exists{Vars: x.Vars, Body: replacePred(x.Body, name, fn)}
	default:
		return f
	}
}

// Inst instantiates the quantifier at the given PVS-style formula index
// with the given terms: a FORALL in the antecedent or an EXISTS in the
// consequent (PVS `inst`). The quantified formula is replaced by its
// instance.
func (p *Prover) Inst(idx int, terms ...logic.Term) error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	g := p.goals[len(p.goals)-1]
	f, err := g.Formula(idx)
	if err != nil {
		return err
	}
	var vars []logic.Var
	var body logic.Formula
	switch x := f.(type) {
	case logic.Forall:
		if idx > 0 {
			return fmt.Errorf("prover: inst: formula %d is a consequent FORALL; use skosimp", idx)
		}
		vars, body = x.Vars, x.Body
	case logic.Exists:
		if idx < 0 {
			return fmt.Errorf("prover: inst: formula %d is an antecedent EXISTS; use skosimp", idx)
		}
		vars, body = x.Vars, x.Body
	default:
		return fmt.Errorf("prover: inst: formula %d is not a quantifier", idx)
	}
	if len(terms) > len(vars) {
		return fmt.Errorf("prover: inst: %d terms for %d bound variables", len(terms), len(vars))
	}
	s := logic.Subst{}
	for i, t := range terms {
		s[vars[i].Name] = t
	}
	inst := s.Apply(body)
	// Partial instantiation keeps the remaining binder.
	if len(terms) < len(vars) {
		rest := vars[len(terms):]
		if idx < 0 {
			inst = logic.Forall{Vars: rest, Body: inst}
		} else {
			inst = logic.Exists{Vars: rest, Body: inst}
		}
	}
	defer p.step(fmt.Sprintf("(inst %d ...)", idx))()
	p.prim()
	ng := g.Clone()
	_ = ng.Replace(idx, inst)
	p.goals[len(p.goals)-1] = ng
	return nil
}

// Case splits the current goal on an arbitrary formula (PVS `case`):
// the first subgoal assumes it, the second must prove it.
func (p *Prover) Case(f logic.Formula) error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step("(case ...)")()
	g := p.pop()
	g1 := g.Clone()
	g1.Ante = append(g1.Ante, f)
	g2 := g.Clone()
	g2.Cons = append(g2.Cons, f)
	p.prim()
	p.pushSubgoals(g1, g2)
	return nil
}

// Lemma brings a named axiom or previously proved theorem of the theory
// into the antecedent of the current goal (PVS `lemma`).
func (p *Prover) Lemma(name string) error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	var f logic.Formula
	for _, ax := range p.Theory.Axioms {
		if ax.Name == name {
			f = ax.Goal
			break
		}
	}
	if f == nil {
		if g, ok := p.proved[name]; ok {
			f = g
		}
	}
	if f == nil {
		// A theorem of the theory may be cited if it was proved in another
		// session; the caller vouches for it via MarkProved.
		return fmt.Errorf("prover: lemma: no axiom or proved theorem %q", name)
	}
	defer p.step(fmt.Sprintf("(lemma %q)", name))()
	p.prim()
	g := p.goals[len(p.goals)-1].Clone()
	g.Ante = append(g.Ante, f)
	p.goals[len(p.goals)-1] = g
	return nil
}

// MarkProved registers an externally proved theorem for use by Lemma.
func (p *Prover) MarkProved(name string, goal logic.Formula) {
	p.proved[name] = goal
}

// Hide removes a formula from the current goal (PVS `hide`). Hiding only
// weakens the sequent, so it is always sound.
func (p *Prover) Hide(idx int) error {
	if len(p.goals) == 0 {
		return ErrNoOpenGoal
	}
	defer p.step(fmt.Sprintf("(hide %d)", idx))()
	g := p.goals[len(p.goals)-1].Clone()
	if err := g.Remove(idx); err != nil {
		return err
	}
	p.prim()
	p.goals[len(p.goals)-1] = g
	return nil
}

// Postpone rotates the current goal to the bottom of the stack.
func (p *Prover) Postpone() error {
	if len(p.goals) < 2 {
		return nil
	}
	g := p.pop()
	p.goals = append([]Sequent{g}, p.goals...)
	return nil
}
