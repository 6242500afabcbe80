// Package translate implements the property-preserving translations at the
// heart of FVN (Figure 1 of the paper): NDlog programs to logical
// specifications for theorem proving (arc 4, following Wang et al. [22]),
// automatic generation of optimality theorems for min/max aggregates, and
// the soft-state to hard-state rule rewrite of §4.2.
package translate

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/ndlog"
)

// Options controls the NDlog-to-logic translation.
type Options struct {
	// IncludeFacts makes ground facts of the program available as axioms.
	IncludeFacts bool
	// TheoremsForAggregates generates, for every min/max aggregate rule, the
	// strong-optimality theorem in the style of bestPathStrong (§3.1).
	TheoremsForAggregates bool
}

// ToLogic translates an analyzed NDlog program into a logical theory:
// every derived predicate becomes an inductive definition whose clauses
// are the program's rules, exploiting the proof-theoretic semantics of
// Datalog (the translation of §3.1). Aggregate rules with min/max become
// the first-order axiomatization "a witness exists, and no better witness
// exists". count/sum aggregates have no first-order axiomatization and are
// rejected — the paper's position is to verify such programs by model
// checking instead (§4.3).
func ToLogic(an *ndlog.Analysis, opts Options) (*logic.Theory, error) {
	th := logic.NewTheory(an.Prog.Name)
	tr := &translator{an: an, sorts: inferSorts(an)}

	// Group rules by head predicate, preserving program order.
	order := []string{}
	byHead := map[string][]*ndlog.Rule{}
	for _, r := range an.Prog.Rules {
		if r.Delete {
			return nil, fmt.Errorf("translate: delete rule %s has no inductive translation; use the linear-logic transition semantics (internal/linear)", r.Label)
		}
		if _, ok := byHead[r.Head.Pred]; !ok {
			order = append(order, r.Head.Pred)
		}
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], r)
	}

	for _, pred := range order {
		rules := byHead[pred]
		def, err := tr.translatePred(pred, rules)
		if err != nil {
			return nil, err
		}
		th.AddInductive(def)
		if opts.TheoremsForAggregates {
			if thm, ok, err := tr.aggOptimalityTheorem(pred, rules); err != nil {
				return nil, err
			} else if ok {
				th.AddTheorem(thm.Name, thm.Goal)
			}
		}
	}

	if opts.IncludeFacts {
		for i, f := range an.Prog.Facts {
			args := make([]logic.Term, len(f.Args))
			for j, v := range f.Args {
				args[j] = logic.Const{Val: v}
			}
			th.AddAxiom(fmt.Sprintf("fact_%s_%d", f.Pred, i+1), logic.Pred{Name: f.Pred, Args: args})
		}
	}

	if err := th.Validate(); err != nil {
		return nil, fmt.Errorf("translate: generated theory invalid: %w", err)
	}
	return th, nil
}

type translator struct {
	an    *ndlog.Analysis
	sorts map[string][]logic.Sort // predicate -> per-argument sort
}

// paramSort returns the inferred sort for argument i of pred.
func (tr *translator) paramSort(pred string, i int) logic.Sort {
	if s, ok := tr.sorts[pred]; ok && i < len(s) && s[i] != "" {
		return s[i]
	}
	return logic.SortAny
}

// translatePred builds the inductive definition for pred from its rules.
func (tr *translator) translatePred(pred string, rules []*ndlog.Rule) (*logic.Inductive, error) {
	// Aggregate predicates translate specially.
	if agg, _ := rules[0].Head.HeadAgg(); agg != nil {
		if len(rules) > 1 {
			return nil, fmt.Errorf("translate: aggregate predicate %s defined by %d rules; one supported", pred, len(rules))
		}
		return tr.translateAggregate(rules[0])
	}

	arity := tr.an.Arity[pred]
	params := tr.chooseParams(pred, arity, rules)

	var clauses []logic.Formula
	for _, r := range rules {
		clause, err := tr.translateRule(r, params)
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, clause)
	}
	return &logic.Inductive{Name: pred, Params: params, Body: logic.Disj(clauses...)}, nil
}

// chooseParams picks parameter names: the head variable names when all
// rules agree on a distinct variable per position, otherwise synthetic
// names A1..An.
func (tr *translator) chooseParams(pred string, arity int, rules []*ndlog.Rule) []logic.Var {
	names := make([]string, arity)
	agree := true
	for i := 0; i < arity; i++ {
		var name string
		for _, r := range rules {
			v, ok := r.Head.Args[i].(ndlog.VarE)
			if !ok {
				agree = false
				break
			}
			if name == "" {
				name = v.Name
			} else if name != v.Name {
				agree = false
				break
			}
		}
		if !agree {
			break
		}
		names[i] = name
	}
	// Names must also be pairwise distinct.
	if agree {
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" || seen[n] {
				agree = false
				break
			}
			seen[n] = true
		}
	}
	params := make([]logic.Var, arity)
	for i := 0; i < arity; i++ {
		name := fmt.Sprintf("A%d", i+1)
		if agree {
			name = names[i]
		}
		params[i] = logic.Var{Name: name, Sort: tr.paramSort(pred, i)}
	}
	return params
}

// translateRule converts one rule into a clause over the given parameters:
// ∃(body vars) . (param_i = head_i) ∧ body. When the head argument i is
// exactly the parameter variable, the equation is omitted and the body
// variable is identified with the parameter.
func (tr *translator) translateRule(r *ndlog.Rule, params []logic.Var) (logic.Formula, error) {
	// Rename body variables that collide with parameter names but are NOT
	// the corresponding head variable? Simpler and sound: rename every body
	// variable to itself unless it equals a param name used at a different
	// position. We identify head vars with params positionally.
	rename := map[string]string{}
	paramByName := map[string]int{}
	for i, p := range params {
		paramByName[p.Name] = i
	}
	var eqs []logic.Formula
	identified := map[string]bool{} // body var identified with a param
	for i, arg := range r.Head.Args {
		if v, ok := arg.(ndlog.VarE); ok {
			if params[i].Name == v.Name {
				identified[v.Name] = true
				continue
			}
			// Head var with a different param name: identify by renaming.
			if _, taken := rename[v.Name]; !taken && !identified[v.Name] {
				rename[v.Name] = params[i].Name
				identified[v.Name] = true
				continue
			}
		}
		// Computed or repeated head argument: add an equation.
		t, err := tr.exprToTerm(arg, rename)
		if err != nil {
			return nil, fmt.Errorf("translate: rule %s: %w", r.Label, err)
		}
		eqs = append(eqs, logic.Eq{L: params[i], R: t})
	}

	// Collect body variables that are not parameters: they are
	// existentially quantified.
	bodyVars := map[string]bool{}
	for _, l := range r.Body {
		if l.Atom != nil {
			for v := range ndlog.AtomVars(l.Atom) {
				bodyVars[v] = true
			}
		} else {
			set := map[string]bool{}
			ndlog.Vars(l.Expr, set)
			for v := range set {
				bodyVars[v] = true
			}
		}
	}
	var exVars []logic.Var
	for _, name := range sortedNames(bodyVars) {
		target := name
		if rn, ok := rename[name]; ok {
			target = rn
		}
		if _, isParam := paramByName[target]; isParam {
			continue
		}
		exVars = append(exVars, logic.Var{Name: target, Sort: tr.sortOfVar(r, name)})
	}

	var conj []logic.Formula
	conj = append(conj, eqs...)
	for _, l := range r.Body {
		f, err := tr.literalToFormula(l, rename)
		if err != nil {
			return nil, fmt.Errorf("translate: rule %s: %w", r.Label, err)
		}
		conj = append(conj, f)
	}
	return logic.Exist(exVars, logic.Conj(conj...)), nil
}

// literalToFormula converts a body literal.
func (tr *translator) literalToFormula(l ndlog.Literal, rename map[string]string) (logic.Formula, error) {
	if l.Atom != nil {
		args := make([]logic.Term, len(l.Atom.Args))
		for i, a := range l.Atom.Args {
			t, err := tr.exprToTerm(a, rename)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		p := logic.Pred{Name: l.Atom.Pred, Args: args}
		if l.Neg {
			return logic.Not{F: p}, nil
		}
		return p, nil
	}
	return tr.exprToFormula(l.Expr, rename)
}

// exprToFormula converts a boolean NDlog expression into a formula.
func (tr *translator) exprToFormula(e ndlog.Expr, rename map[string]string) (logic.Formula, error) {
	be, ok := e.(ndlog.BinE)
	if !ok {
		// A bare boolean-valued term: t = TRUE.
		t, err := tr.exprToTerm(e, rename)
		if err != nil {
			return nil, err
		}
		return logic.Eq{L: t, R: logic.BoolT(true)}, nil
	}
	switch be.Op {
	case "&&":
		l, err := tr.exprToFormula(be.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := tr.exprToFormula(be.R, rename)
		if err != nil {
			return nil, err
		}
		return logic.Conj(l, r), nil
	case "||":
		l, err := tr.exprToFormula(be.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := tr.exprToFormula(be.R, rename)
		if err != nil {
			return nil, err
		}
		return logic.Disj(l, r), nil
	case "=", "==":
		l, err := tr.exprToTerm(be.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := tr.exprToTerm(be.R, rename)
		if err != nil {
			return nil, err
		}
		return logic.Eq{L: l, R: r}, nil
	case "!=":
		l, err := tr.exprToTerm(be.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := tr.exprToTerm(be.R, rename)
		if err != nil {
			return nil, err
		}
		return logic.Not{F: logic.Eq{L: l, R: r}}, nil
	case "<", "<=", ">", ">=":
		l, err := tr.exprToTerm(be.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := tr.exprToTerm(be.R, rename)
		if err != nil {
			return nil, err
		}
		return logic.Cmp{Op: be.Op, L: l, R: r}, nil
	default:
		t, err := tr.exprToTerm(e, rename)
		if err != nil {
			return nil, err
		}
		return logic.Eq{L: t, R: logic.BoolT(true)}, nil
	}
}

// exprToTerm converts an NDlog expression to a logical term.
func (tr *translator) exprToTerm(e ndlog.Expr, rename map[string]string) (logic.Term, error) {
	switch x := e.(type) {
	case ndlog.VarE:
		name := x.Name
		if rn, ok := rename[name]; ok {
			name = rn
		}
		return logic.V(name), nil
	case ndlog.LitE:
		return logic.Const{Val: x.Val}, nil
	case ndlog.CallE:
		args := make([]logic.Term, len(x.Args))
		for i, a := range x.Args {
			t, err := tr.exprToTerm(a, rename)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		return logic.App{Fn: x.Fn, Args: args}, nil
	case ndlog.BinE:
		l, err := tr.exprToTerm(x.L, rename)
		if err != nil {
			return nil, err
		}
		r, err := tr.exprToTerm(x.R, rename)
		if err != nil {
			return nil, err
		}
		return logic.App{Fn: x.Op, Args: []logic.Term{l, r}}, nil
	case ndlog.AggE:
		return nil, fmt.Errorf("aggregate %s in term position", x)
	}
	return nil, fmt.Errorf("unknown expression")
}

// translateAggregate builds the axiomatization of a min/max rule:
//
//	r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
//
// becomes
//
//	bestPathCost(S,D,C): INDUCTIVE bool =
//	  (EXISTS P: path(S,D,P,C)) AND
//	  (FORALL P',C': path(S,D,P',C') => C <= C')
func (tr *translator) translateAggregate(r *ndlog.Rule) (*logic.Inductive, error) {
	agg, aggIdx := r.Head.HeadAgg()
	var op string
	switch agg.Kind {
	case "min":
		op = "<="
	case "max":
		op = ">="
	default:
		return nil, fmt.Errorf("translate: rule %s: %s aggregates have no first-order axiomatization; verify via model checking (§4.3)", r.Label, agg.Kind)
	}

	pred := r.Head.Pred
	arity := tr.an.Arity[pred]
	params := make([]logic.Var, arity)
	for i := 0; i < arity; i++ {
		if i == aggIdx {
			params[i] = logic.Var{Name: agg.Arg, Sort: tr.paramSort(pred, i)}
			if params[i].Sort == logic.SortAny {
				params[i].Sort = logic.SortMetric
			}
			continue
		}
		if v, ok := r.Head.Args[i].(ndlog.VarE); ok {
			params[i] = logic.Var{Name: v.Name, Sort: tr.paramSort(pred, i)}
		} else {
			params[i] = logic.Var{Name: fmt.Sprintf("A%d", i+1), Sort: tr.paramSort(pred, i)}
		}
	}

	witness, wVars, err := tr.aggBody(r, params, aggIdx, "")
	if err != nil {
		return nil, err
	}
	bound, bVars, err := tr.aggBody(r, params, aggIdx, "_0")
	if err != nil {
		return nil, err
	}
	aggParam := params[aggIdx]
	primedAgg := logic.Var{Name: agg.Arg + "_0", Sort: aggParam.Sort}
	universal := logic.All(append(bVars, primedAgg), logic.Implies{
		L: bound,
		R: logic.Cmp{Op: op, L: aggParam, R: primedAgg},
	})
	body := logic.Conj(logic.Exist(wVars, witness), universal)
	return &logic.Inductive{Name: pred, Params: params, Body: body}, nil
}

// aggBody builds the rule body as a formula over the group-by parameters,
// with the aggregated variable mapped to agg.Arg+suffix and all other
// non-parameter body variables suffixed for freshness. It returns the
// formula and the variables to quantify (excluding the aggregate variable).
func (tr *translator) aggBody(r *ndlog.Rule, params []logic.Var, aggIdx int, suffix string) (logic.Formula, []logic.Var, error) {
	agg, _ := r.Head.HeadAgg()
	paramNames := map[string]bool{}
	for i, p := range params {
		if i == aggIdx {
			continue
		}
		paramNames[p.Name] = true
	}
	rename := map[string]string{}
	// Group-by head vars keep their names; everything else (including the
	// aggregated variable) gets the suffix.
	bodyVars := map[string]bool{}
	for _, l := range r.Body {
		if l.Atom != nil {
			for v := range ndlog.AtomVars(l.Atom) {
				bodyVars[v] = true
			}
		} else {
			set := map[string]bool{}
			ndlog.Vars(l.Expr, set)
			for v := range set {
				bodyVars[v] = true
			}
		}
	}
	var quantVars []logic.Var
	for _, name := range sortedNames(bodyVars) {
		if paramNames[name] {
			continue
		}
		renamed := name + suffix
		rename[name] = renamed
		if name == agg.Arg {
			continue // handled by caller
		}
		quantVars = append(quantVars, logic.Var{Name: renamed, Sort: tr.sortOfVar(r, name)})
	}
	var conj []logic.Formula
	for _, l := range r.Body {
		f, err := tr.literalToFormula(l, rename)
		if err != nil {
			return nil, nil, err
		}
		conj = append(conj, f)
	}
	return logic.Conj(conj...), quantVars, nil
}

// aggOptimalityTheorem generates, for a min/max aggregate predicate, the
// strong-optimality theorem of §3.1: no body witness beats the aggregate
// value.
func (tr *translator) aggOptimalityTheorem(pred string, rules []*ndlog.Rule) (logic.Theorem, bool, error) {
	agg, aggIdx := rules[0].Head.HeadAgg()
	if agg == nil || (agg.Kind != "min" && agg.Kind != "max") {
		return logic.Theorem{}, false, nil
	}
	def, err := tr.translateAggregate(rules[0])
	if err != nil {
		return logic.Theorem{}, false, err
	}
	params := def.Params
	strictOp := "<"
	if agg.Kind == "max" {
		strictOp = ">"
	}
	better, bVars, err := tr.aggBody(rules[0], params, aggIdx, "_b")
	if err != nil {
		return logic.Theorem{}, false, err
	}
	aggParam := params[aggIdx]
	betterAgg := logic.Var{Name: agg.Arg + "_b", Sort: aggParam.Sort}
	goal := logic.Forall{
		Vars: params,
		Body: logic.Implies{
			L: logic.Pred{Name: pred, Args: varsToTerms(params)},
			R: logic.Not{F: logic.Exist(append(bVars, betterAgg), logic.Conj(
				better,
				logic.Cmp{Op: strictOp, L: betterAgg, R: aggParam},
			))},
		},
	}
	return logic.Theorem{Name: pred + "Strong", Goal: goal}, true, nil
}

func varsToTerms(vs []logic.Var) []logic.Term {
	out := make([]logic.Term, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
