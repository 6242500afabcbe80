package datalog

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/ndlog"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// Mode selects the fixpoint algorithm.
type Mode int

const (
	// SemiNaive evaluates recursive rules against the delta of the previous
	// iteration (the production algorithm, and what P2 implements).
	SemiNaive Mode = iota
	// Naive re-evaluates every rule against the full database each
	// iteration; kept as the ablation baseline (bench A1).
	Naive
)

// Stats counts evaluation work.
type Stats struct {
	Iterations  int // fixpoint rounds across all strata
	Derivations int // tuples derived (including duplicates)
	NewTuples   int // tuples actually added
	JoinProbes  int // candidate tuples probed by the plan executor
}

// Engine evaluates an analyzed NDlog program to fixpoint. Rule bodies run
// through the compiled join plans of the analysis (internal/ndlog) on the
// shared plan executor (internal/store) — the same machinery the
// distributed runtime uses.
type Engine struct {
	An   *ndlog.Analysis
	Mode Mode

	rels  map[string]*Relation
	execs map[*ndlog.Plan]*store.Exec
	Stats Stats

	// Observability (nil when disabled — see Attach). ruleObs carries
	// pre-resolved per-rule metric handles so the hot loop pays only a
	// nil-map lookup when instrumentation is off.
	col     *obs.Collector
	tracer  *obs.Tracer
	ruleObs map[*ndlog.Rule]*ruleObs

	// Provenance (nil when disabled — see AttachProv). provAnts is the
	// reusable antecedent scratch buffer of the emit path.
	prov     *prov.Recorder
	provAnts []prov.ID
}

// ruleObs bundles the per-rule metric handles of one rule.
type ruleObs struct {
	firings *obs.Counter
	probes  *obs.Counter
	emitted *obs.Counter
	eval    *obs.Histogram
}

// Attach connects the engine to an observability collector and trace
// stream under the "datalog" component. Per-rule handles (firings, join
// probes, tuples emitted, eval time, keyed by rule label) are resolved
// once here. Passing (nil, nil) detaches.
func (e *Engine) Attach(c *obs.Collector, t *obs.Tracer) {
	e.col, e.tracer = c, t
	e.ruleObs = nil
	if c == nil && t == nil {
		return
	}
	// Handles resolve to nil-safe no-ops when only tracing is enabled.
	e.ruleObs = make(map[*ndlog.Rule]*ruleObs, len(e.An.Prog.Rules))
	for _, r := range e.An.Prog.Rules {
		e.ruleObs[r] = &ruleObs{
			firings: c.Counter("datalog", obs.MRuleFirings, r.Label),
			probes:  c.Counter("datalog", obs.MRuleProbes, r.Label),
			emitted: c.Counter("datalog", obs.MRuleEmitted, r.Label),
			eval:    c.Histogram("datalog", obs.MRuleEval, r.Label),
		}
	}
}

// AttachProv connects the engine to a provenance recorder. Every tuple
// inserted afterwards gets a derivation entry: base facts become leaves,
// rule emissions record the firing plus the antecedent tuple versions the
// join consumed. The centralized engine records under the empty node name
// at t=0 (it has no clock). Passing nil detaches.
func (e *Engine) AttachProv(rec *prov.Recorder) { e.prov = rec }

// Prov returns the attached provenance recorder (nil when detached).
func (e *Engine) Prov() *prov.Recorder { return e.prov }

// New analyzes prog and creates an engine over it. The program's facts are
// loaded into the store.
func New(prog *ndlog.Program) (*Engine, error) {
	an, err := ndlog.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return NewFromAnalysis(an)
}

// NewFromAnalysis creates an engine from an existing analysis.
func NewFromAnalysis(an *ndlog.Analysis) (*Engine, error) {
	if an.AggInCycle {
		return nil, fmt.Errorf("datalog: program aggregates on a recursive cycle; it has no stratified model — execute it on the distributed runtime (internal/dist)")
	}
	e := &Engine{An: an, rels: map[string]*Relation{}, execs: map[*ndlog.Plan]*store.Exec{}}
	for pred, arity := range an.Arity {
		e.rels[pred] = NewRelation(pred, arity)
	}
	for _, f := range an.Prog.Facts {
		if err := e.Insert(f.Pred, f.Args); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Explain renders the EXPLAIN ANALYZE view of the program — each rule
// annotated with its compiled join order plus firings, join probes,
// tuples emitted, and cumulative eval time — from the attached collector.
// Attach must have run with a non-nil collector before the evaluation
// being explained.
func (e *Engine) Explain(w io.Writer, title string) {
	rules := make([]obs.RuleLine, 0, len(e.An.Prog.Rules))
	for _, r := range e.An.Prog.Rules {
		line := obs.RuleLine{Label: r.Label, Text: r.String()}
		if rp := e.An.Plans[r]; rp != nil {
			line.Plan = rp.Full.Describe()
		}
		rules = append(rules, line)
	}
	obs.WriteExplain(w, title, "datalog", rules, e.col)
}

// Relation returns the relation for pred, or nil if the predicate is
// unknown to the program.
func (e *Engine) Relation(pred string) *Relation {
	if r, ok := e.rels[pred]; ok {
		return r
	}
	return nil
}

// Table implements store.TableSource for the plan executor.
func (e *Engine) Table(pred string) *store.Table { return e.rels[pred] }

// exec returns the engine's cached executor for a plan.
func (e *Engine) exec(p *ndlog.Plan) *store.Exec {
	x, ok := e.execs[p]
	if !ok {
		x = store.NewExec(p)
		e.execs[p] = x
	}
	return x
}

// Insert adds a base tuple.
func (e *Engine) Insert(pred string, t value.Tuple) error {
	r, ok := e.rels[pred]
	if !ok {
		r = NewRelation(pred, len(t))
		e.rels[pred] = r
	}
	isNew, err := r.Insert(t)
	if isNew && err == nil {
		e.prov.Tuple(0, "", pred, t, 0)
	}
	return err
}

// DeleteBase removes a base tuple. Derived state is not retracted
// automatically; call Run again for a full recomputation.
func (e *Engine) DeleteBase(pred string, t value.Tuple) bool {
	r, ok := e.rels[pred]
	if !ok {
		return false
	}
	if r.Delete(t) {
		e.prov.Retract(0, "", pred, t, "delete_base", 0)
		return true
	}
	return false
}

// Query returns the tuples of pred in deterministic order.
func (e *Engine) Query(pred string) []value.Tuple {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	return r.Sorted()
}

// Count returns the number of tuples of pred.
func (e *Engine) Count(pred string) int {
	r, ok := e.rels[pred]
	if !ok {
		return 0
	}
	return r.Len()
}

// Reset clears all derived relations, keeping base tuples.
func (e *Engine) Reset() {
	for pred, r := range e.rels {
		if e.An.Derived[pred] {
			r.Clear()
		}
	}
}

// Run computes the stratified fixpoint of the program over the current
// base tuples. Derived relations are cleared first, so Run is idempotent
// and can be called again after base-table changes (including deletions).
func (e *Engine) Run() error {
	e.Reset()
	for stratum := range e.An.Strata {
		if err := e.runStratum(stratum); err != nil {
			return err
		}
	}
	return nil
}

// rulesOfStratum partitions the stratum's rules into aggregate rules,
// delete rules, and plain rules.
func (e *Engine) rulesOfStratum(stratum int) (plain, aggs, dels []*ndlog.Rule) {
	for _, r := range e.An.Prog.Rules {
		if e.An.StratumOf[r.Head.Pred] != stratum {
			continue
		}
		_, aggIdx := r.Head.HeadAgg()
		switch {
		case r.Delete:
			dels = append(dels, r)
		case aggIdx >= 0:
			aggs = append(aggs, r)
		default:
			plain = append(plain, r)
		}
	}
	return plain, aggs, dels
}

func (e *Engine) runStratum(stratum int) error {
	iter0 := e.Stats.Iterations
	var t0 time.Time
	if e.col != nil || e.tracer != nil {
		t0 = time.Now()
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{Kind: obs.EvStratumStart, N: int64(stratum)})
		}
		defer func() {
			d := time.Since(t0)
			e.col.Histogram("datalog", "stratum_eval", strconv.Itoa(stratum)).Observe(d)
			if e.tracer != nil {
				e.tracer.Emit(obs.Event{Kind: obs.EvStratumEnd, N: int64(e.Stats.Iterations - iter0), DurNs: int64(d)})
			}
		}()
	}

	plain, aggs, dels := e.rulesOfStratum(stratum)

	// Aggregate rules read only lower strata (guaranteed by
	// stratification), so they run once, first.
	for _, r := range aggs {
		if err := e.evalAggregate(r); err != nil {
			return err
		}
	}

	inStratum := func(pred string) bool {
		return e.An.Derived[pred] && e.An.StratumOf[pred] == stratum
	}

	switch e.Mode {
	case Naive:
		for {
			e.Stats.Iterations++
			added := 0
			for _, r := range plain {
				ts, err := e.evalRuleCollect(r, -1, nil)
				if err != nil {
					return err
				}
				added += len(ts)
			}
			if added == 0 {
				break
			}
		}
	default: // SemiNaive
		// Round 0: evaluate every rule on the full database.
		delta := map[string][]value.Tuple{}
		e.Stats.Iterations++
		for _, r := range plain {
			newTs, err := e.evalRuleCollect(r, -1, nil)
			if err != nil {
				return err
			}
			for _, t := range newTs {
				delta[r.Head.Pred] = append(delta[r.Head.Pred], t)
			}
		}
		// Subsequent rounds: join each recursive atom against the delta,
		// through the rule's per-literal delta plan.
		for len(delta) > 0 {
			e.Stats.Iterations++
			next := map[string][]value.Tuple{}
			for _, r := range plain {
				for bi, l := range r.Body {
					if l.Atom == nil || l.Neg || !inStratum(l.Atom.Pred) {
						continue
					}
					d := delta[l.Atom.Pred]
					if len(d) == 0 {
						continue
					}
					newTs, err := e.evalRuleCollect(r, bi, d)
					if err != nil {
						return err
					}
					for _, t := range newTs {
						next[r.Head.Pred] = append(next[r.Head.Pred], t)
					}
				}
			}
			delta = next
		}
	}

	// Delete rules run after the stratum reaches fixpoint.
	for _, r := range dels {
		if err := e.evalDelete(r); err != nil {
			return err
		}
	}
	return nil
}

// evalRuleCollect evaluates r through its compiled plan (the full plan,
// or the delta plan for body literal deltaIdx) and inserts derived heads,
// returning the newly inserted tuples.
func (e *Engine) evalRuleCollect(r *ndlog.Rule, deltaIdx int, delta []value.Tuple) ([]value.Tuple, error) {
	plans := e.An.Plans[r]
	plan := plans.Full
	if deltaIdx >= 0 {
		plan = plans.Delta[deltaIdx]
	}
	x := e.exec(plan)

	ro := e.ruleObs[r]
	var t0 time.Time
	if ro != nil {
		t0 = time.Now()
	}
	var added []value.Tuple
	rel := e.rels[r.Head.Pred]
	probes, err := x.Run(e, delta, nil, func([]value.V) error {
		t := make(value.Tuple, len(plan.HeadExprs))
		if err := plan.BuildHead(x.Env(), t); err != nil {
			return fmt.Errorf("datalog: head of %s: %w", r.Head.Pred, err)
		}
		e.Stats.Derivations++
		ro.addFiring()
		isNew, err := rel.Insert(t)
		if err != nil {
			return err
		}
		if isNew {
			e.Stats.NewTuples++
			if ro != nil {
				ro.emitted.Add(1)
				if e.tracer != nil {
					e.tracer.Emit(obs.Event{Kind: obs.EvTupleDerived, Rule: r.Label, Pred: r.Head.Pred, Tuple: t.String()})
				}
			}
			if e.prov.Enabled() {
				cause := e.prov.Rule(0, "", r.Label, e.collectAnts(plan, x))
				e.prov.Tuple(0, "", r.Head.Pred, t, cause)
			}
			added = append(added, t)
		}
		return nil
	})
	e.Stats.JoinProbes += int(probes)
	if ro != nil {
		ro.probes.Add(probes)
		ro.eval.Observe(time.Since(t0))
	}
	return added, err
}

// collectAnts resolves the tuples currently bound by the plan's scan and
// delta steps to their provenance ids — the antecedents of the firing.
func (e *Engine) collectAnts(plan *ndlog.Plan, x *store.Exec) []prov.ID {
	ants := e.provAnts[:0]
	for _, si := range plan.AntSteps {
		st := &plan.Steps[si]
		if id := e.prov.Current("", st.Pred, x.CurTuple(si)); id != 0 {
			ants = append(ants, id)
		}
	}
	e.provAnts = ants
	return ants
}

// addFiring counts one head derivation (nil-safe for the disabled path).
func (ro *ruleObs) addFiring() {
	if ro != nil {
		ro.firings.Add(1)
	}
}

// evalDelete evaluates a delete rule, removing matching head tuples.
func (e *Engine) evalDelete(r *ndlog.Rule) error {
	plan := e.An.Plans[r].Full
	x := e.exec(plan)

	ro := e.ruleObs[r]
	var t0 time.Time
	if ro != nil {
		t0 = time.Now()
	}
	var victims []value.Tuple
	probes, err := x.Run(e, nil, nil, func([]value.V) error {
		t := make(value.Tuple, len(plan.HeadExprs))
		if err := plan.BuildHead(x.Env(), t); err != nil {
			return fmt.Errorf("datalog: head of %s: %w", r.Head.Pred, err)
		}
		ro.addFiring()
		victims = append(victims, t)
		return nil
	})
	e.Stats.JoinProbes += int(probes)
	if ro != nil {
		ro.probes.Add(probes)
		ro.eval.Observe(time.Since(t0))
	}
	if err != nil {
		return err
	}
	rel := e.rels[r.Head.Pred]
	for _, t := range victims {
		if rel.Delete(t) {
			e.prov.Retract(0, "", r.Head.Pred, t, "delete_rule "+r.Label, 0)
		}
	}
	return nil
}

// evalAggregate evaluates an aggregate-head rule through the shared fold
// (store.Aggregate) and inserts one head tuple per group, in sorted
// group-key order.
func (e *Engine) evalAggregate(r *ndlog.Rule) error {
	plan := e.An.Plans[r].Full
	x := e.exec(plan)

	ro := e.ruleObs[r]
	if ro != nil {
		defer func(t0 time.Time) { ro.eval.Observe(time.Since(t0)) }(time.Now())
	}
	var ants func() []prov.ID
	if e.prov.Enabled() {
		ants = func() []prov.ID { return e.collectAnts(plan, x) }
	}
	groups, probes, err := store.Aggregate(x, e, nil, ants)
	e.Stats.JoinProbes += int(probes)
	if ro != nil {
		ro.probes.Add(probes)
	}
	if err != nil {
		return err
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	rel := e.rels[r.Head.Pred]
	for _, g := range groups {
		out := g.Head(plan)
		e.Stats.Derivations++
		ro.addFiring()
		isNew, err := rel.Insert(out)
		if err != nil {
			return err
		}
		if isNew {
			e.Stats.NewTuples++
			if ro != nil {
				ro.emitted.Add(1)
				if e.tracer != nil {
					e.tracer.Emit(obs.Event{Kind: obs.EvTupleDerived, Rule: r.Label, Pred: r.Head.Pred, Tuple: out.String()})
				}
			}
			if e.prov.Enabled() {
				cause := e.prov.Rule(0, "", r.Label, g.Ants)
				e.prov.Tuple(0, "", r.Head.Pred, out, cause)
			}
		}
	}
	return nil
}
