package dist

import (
	"fmt"
	"time"

	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/store"
	"repro/internal/value"
)

// Node is one network participant: its tables and the localized rules it
// evaluates. Rules are indexed by the predicates of their body atoms so
// that tuple arrivals trigger exactly the affected rules (pipelined
// evaluation); the indexes live on the Network (identical at every node)
// so per-node state is just tables plus crash/checkpoint bookkeeping —
// what lets one process hold 10^5..10^6 nodes. Tables are store.Table
// instances — the same storage layer the centralized engine uses — and
// rule bodies run through the compiled join plans of the localized
// program's analysis on the shared plan executor.
type Node struct {
	ID  string
	net *Network

	tables map[string]*store.Table

	// Crash state (see Network.CrashNode): down marks the node crashed;
	// epoch counts crashes, so expiry events scheduled by an earlier
	// incarnation are recognized as cancelled; downLinks snapshots the
	// adjacent links at crash time for restoration on restart.
	down      bool
	epoch     int
	downLinks []netgraph.Link

	// Checkpoint state (Options.CheckpointEvery, selfheal.go): the last
	// base-table snapshot and when it was taken. Deliberately NOT wiped
	// by a crash — it models stable storage surviving the process.
	ckpt    []ckptTable
	ckptAt  float64
	hasCkpt bool
}

type trigger struct {
	rule *ndlog.Rule
	idx  int
}

// derivation is a pending derived tuple.
type derivation struct {
	pred  string
	tup   value.Tuple
	loc   string  // destination node (from the location argument)
	cause prov.ID // the rule firing that produced it (0 when disabled)
	// del marks an explicit delete-rule firing: the rule, nil otherwise.
	// Delete rules retract locally and never cascade through plain
	// triggers (matching the centralized engine, where deletes run after
	// the stratum's fixpoint); aggregates over the head do recompute.
	del *ndlog.Rule
	// retract marks a deletion-cascade loss candidate: the tuple may have
	// lost its last support and must be re-checked (and re-derived or
	// removed) at loc — the DRed over-delete propagating through the
	// network.
	retract bool
}

// Table implements store.TableSource for the plan executor: a nil result
// (predicate never materialized at this node) matches nothing.
func (n *Node) Table(pred string) *store.Table { return n.tables[pred] }

// table returns the node's table for pred, creating it from the
// materialize declaration (1-based key columns, soft-state lifetime) on
// first use.
func (n *Node) table(pred string) *store.Table {
	if t, ok := n.tables[pred]; ok {
		return t
	}
	arity := n.net.an.Arity[pred]
	var keys []int
	if m, ok := n.net.prog.MaterializedPred(pred); ok {
		for _, k := range m.Keys {
			keys = append(keys, k-1)
		}
	}
	t := store.New(pred, arity, keys, n.net.lifetime(pred))
	n.tables[pred] = t
	return t
}

// Tuples returns the current tuples of pred at this node, sorted.
func (n *Node) Tuples(pred string) []value.Tuple {
	t, ok := n.tables[pred]
	if !ok {
		return nil
	}
	return t.Sorted()
}

// insert stores a tuple and returns the downstream derivations it enables.
// It drives plain rules via pipelined semi-naive evaluation (the new tuple
// as delta), recomputes affected aggregate groups, and — when a keyed put
// replaced an old tuple — cascades the old tuple's losses after the new
// tuple's firings (fire-then-losses, so a moved value re-derives its
// consequences before the stale ones are questioned).
func (n *Node) insert(pred string, tup value.Tuple, now float64, cause prov.ID) ([]derivation, error) {
	changed, _, old, err := n.insertQuiet(pred, tup, now, cause)
	if err != nil {
		return nil, err
	}
	if !changed && !n.net.refreshFire(n, pred, tup) {
		return nil, nil
	}
	ds, err := n.fire(pred, tup)
	if err != nil {
		return nil, err
	}
	if old != nil && !n.net.opts.ScalarDelete {
		more, err := n.replacedLosses(pred, old, cause)
		if err != nil {
			return nil, err
		}
		ds = append(ds, more...)
	}
	return ds, nil
}

// insertQuiet performs the table update (key replacement, expiry
// scheduling, statistics) without firing rules. It returns whether the
// table changed, the tuple's primary key (so batch delivery can fire
// rules once per surviving key), and the old tuple a keyed put replaced
// (nil otherwise — the caller owes the replaced tuple a loss cascade).
func (n *Node) insertQuiet(pred string, tup value.Tuple, now float64, cause prov.ID) (bool, string, value.Tuple, error) {
	t := n.table(pred)
	if t.Arity == 0 && t.Len() == 0 {
		// A predicate unknown to the rules (externally populated table):
		// adopt the arity of the first tuple.
		t.Arity = len(tup)
	}
	if len(tup) != t.Arity {
		return false, "", nil, fmt.Errorf("dist: %s: %s expects %d columns, got %d", n.ID, pred, t.Arity, len(tup))
	}
	res, old, err := t.Put(tup, now)
	if err != nil {
		return false, "", nil, err
	}
	if res == store.PutNoop {
		return false, "", nil, nil
	}
	if t.Lifetime > 0 {
		n.net.scheduleExpiry(n.ID, pred, tup, now+t.Lifetime)
	}
	key := t.KeyOf(tup)
	var replaced value.Tuple
	if res == store.PutReplace {
		n.net.nm.routeChanges.Add(1)
		n.net.noteFlip(n.ID, pred, key, old, tup)
		// The new version supersedes the old by key replacement; forget
		// the old content version so Current resolves to the live tuple.
		n.net.prov.Drop(n.ID, pred, old)
		replaced = old
	}
	n.net.prov.Tuple(now, n.ID, pred, tup, cause)
	n.net.nm.tupleUpdates.Add(1)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: now, Kind: obs.EvTupleDerived, Node: n.ID, Pred: pred, Tuple: tup.String()})
	}
	n.net.lastChange = now
	return true, key, replaced, nil
}

// fire evaluates the rules triggered by a change to tup of pred: plain
// rules via delta joins, aggregate rules via group recomputation.
func (n *Node) fire(pred string, tup value.Tuple) ([]derivation, error) {
	var out []derivation
	for _, tr := range n.net.triggers[pred] {
		ds, err := n.evalRuleDelta(tr.rule, tr.idx, tup)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	for _, r := range n.net.aggTriggers[pred] {
		ds, err := n.recomputeAggregate(r, pred, tup)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}

// recomputeAggregate re-evaluates the aggregate rule for the groups the
// changed tuple can affect (falling back to a full recompute when the
// groups cannot be determined from the tuple alone).
func (n *Node) recomputeAggregate(r *ndlog.Rule, pred string, tup value.Tuple) ([]derivation, error) {
	seeds, full, relevant := n.aggSeeds(r, pred, tup)
	if !relevant {
		return nil, nil
	}
	if full {
		return n.evalAggregate(r, nil)
	}
	var out []derivation
	for _, seed := range seeds {
		ds, err := n.evalAggregate(r, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}

// aggSeeds determines the group bindings of r affected by a change to tup
// of pred. It returns (seeds, needFullRecompute, tupleRelevant).
func (n *Node) aggSeeds(r *ndlog.Rule, pred string, tup value.Tuple) ([]map[string]value.V, bool, bool) {
	_, aggIdx := r.Head.HeadAgg()
	var groupVars []string
	for i, arg := range r.Head.Args {
		if i == aggIdx {
			continue
		}
		v, ok := arg.(ndlog.VarE)
		if !ok {
			return nil, true, true // computed group column: full recompute
		}
		groupVars = append(groupVars, v.Name)
	}
	seen := map[string]bool{}
	var seeds []map[string]value.V
	relevant := false
	for _, l := range r.Body {
		if l.Atom == nil || l.Neg || l.Atom.Pred != pred {
			continue
		}
		env := map[string]value.V{}
		if _, ok := ndlog.MatchAtom(l.Atom, tup, env); !ok {
			continue
		}
		relevant = true
		seed := map[string]value.V{}
		complete := true
		keyParts := make(value.Tuple, 0, len(groupVars))
		for _, gv := range groupVars {
			v, bound := env[gv]
			if !bound {
				complete = false
				break
			}
			seed[gv] = v
			keyParts = append(keyParts, v)
		}
		if !complete {
			return nil, true, true // the atom does not determine the group
		}
		k := keyParts.Key()
		if !seen[k] {
			seen[k] = true
			seeds = append(seeds, seed)
		}
	}
	return seeds, false, relevant
}

// expire removes a soft-state tuple if it has not been refreshed and
// recomputes aggregates that depended on it. Expiry never cascades (see
// the comment at the deletion site): derived soft state has its own
// TTLs and heals by refresh.
func (n *Node) expire(pred string, tup value.Tuple, now float64) ([]derivation, error) {
	t, ok := n.tables[pred]
	if !ok {
		return nil, nil
	}
	k := t.KeyOf(tup)
	cur, exists := t.Get(k)
	if !exists || !cur.Equal(tup) {
		return nil, nil // replaced in the meantime
	}
	if last, ok := t.RefreshAt(k); ok && last+t.Lifetime > now+1e-9 {
		// Refreshed since this expiry was scheduled. Refreshes by identical
		// re-insert do not create new expiry events (the insert is a
		// no-op), so reschedule from the refresh time to keep exactly one
		// live expiry per entry.
		n.net.scheduleExpiry(n.ID, pred, tup, last+t.Lifetime)
		return nil, nil
	}
	// Expiry deliberately does NOT run the DRed loss cascade: soft state
	// ages out on its own TTLs (§4.2), so derived tuples downstream of an
	// expired fact keep their own lifetimes and heal by refresh. The
	// cascade is reserved for explicit retractions (link failures, delete
	// rules, support loss), where waiting for TTLs would leave provably
	// stale state in place.
	t.DeleteByKey(k)
	n.net.nm.expirations.Add(1)
	n.net.prov.Retract(now, n.ID, pred, cur, "expired", 0)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: now, Kind: obs.EvExpired, Node: n.ID, Pred: pred, Tuple: cur.String()})
	}
	n.net.lastChange = now

	var out []derivation
	for _, r := range n.net.aggTriggers[pred] {
		ds, err := n.recomputeAggregate(r, pred, cur)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}

// retract removes pred(tup) from the node through the incremental
// deletion path: the tuple is over-deleted, checked for an alternative
// derivation (DRed re-derive; skipped under force — primary deletions
// like link failures are facts, not inferences), and, when truly gone,
// its delta-join consequences are emitted as further retraction
// candidates so the loss cascades across rules and nodes. reason and
// cause feed provenance. Under Options.ScalarDelete the cascade and the
// re-derivation check are disabled and only aggregates recompute — the
// pre-cascade oracle semantics.
func (n *Node) retract(pred string, tup value.Tuple, force bool, reason string, cause prov.ID) ([]derivation, error) {
	t, ok := n.tables[pred]
	if !ok {
		return nil, nil
	}
	k := t.KeyOf(tup)
	cur, exists := t.Get(k)
	if !exists || !cur.Equal(tup) {
		return nil, nil // already gone or superseded: nothing to retract
	}
	// Loss candidates against the pre-deletion state (self-joins over
	// pred still see the dying tuple).
	var losses []derivation
	if !n.net.opts.ScalarDelete {
		var err error
		losses, err = n.lossCandidates(pred, tup, cause)
		if err != nil {
			return nil, err
		}
	}
	t.DeleteByKey(k)
	if !force && !n.net.opts.ScalarDelete {
		ok, err := n.rederive(pred, tup)
		if err != nil {
			return nil, err
		}
		if ok {
			// Alternative support exists: restore the tuple (it never
			// observably left) and drop the cascade.
			if _, _, err := t.Put(tup, n.net.now); err != nil {
				return nil, err
			}
			return nil, nil
		}
	}
	n.net.nm.retractions.Add(1)
	n.net.prov.Retract(n.net.now, n.ID, pred, tup, reason, cause)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: n.net.now, Kind: obs.EvRetracted, Node: n.ID, Pred: pred, Tuple: tup.String()})
	}
	n.net.lastChange = n.net.now
	var out []derivation
	for _, r := range n.net.aggTriggers[pred] {
		ds, err := n.recomputeAggregate(r, pred, tup)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return append(out, losses...), nil
}

// rederive checks whether pred(tup) still has a derivation from the
// node's current state, trying every rule that can head the predicate
// locally via its head-seeded plan (store.Rederivable). A surviving
// witness re-records the tuple's provenance under the rule's
// "/rederive" label.
func (n *Node) rederive(pred string, tup value.Tuple) (bool, error) {
	for _, r := range n.net.headRules[pred] {
		loc, err := n.headLoc(r, tup)
		if err != nil || loc != n.ID {
			continue // this rule derives the tuple at another node
		}
		rp := n.net.an.Plans[r]
		x := n.net.exec(rp.HeadSeeded)
		ok, err := store.Rederivable(x, n, rp.HeadSeeded, rp.HeadSeedCols, tup)
		if err != nil {
			return false, err
		}
		if ok {
			if n.net.prov.Enabled() {
				cause := n.net.prov.Rule(n.net.now, n.ID, r.Label+"/rederive", nil)
				n.net.prov.Tuple(n.net.now, n.ID, pred, tup, cause)
			}
			return true, nil
		}
	}
	return false, nil
}

// lossCandidates evaluates the positive delta plans triggered by a
// deleted tuple and returns every head that may have lost support — the
// over-delete half of DRed. Candidates are verification work, not rule
// firings: they do not count toward derivation statistics, and each one
// is re-checked (and possibly re-derived) wherever it lands.
func (n *Node) lossCandidates(pred string, tup value.Tuple, cause prov.ID) ([]derivation, error) {
	var out []derivation
	for _, tr := range n.net.triggers[pred] {
		if tr.rule.Delete {
			continue // a delete rule's head was never derived by it
		}
		plan := n.net.an.Plans[tr.rule].Delta[tr.idx]
		x := n.net.exec(plan)
		n.net.deltaBuf[0] = tup
		_, err := x.Run(n, n.net.deltaBuf[:], nil, func([]value.V) error {
			head := make(value.Tuple, len(plan.HeadExprs))
			if err := plan.BuildHead(x.Env(), head); err != nil {
				return fmt.Errorf("dist: rule %s head: %w", tr.rule.Label, err)
			}
			loc, err := n.headLoc(tr.rule, head)
			if err != nil {
				return err
			}
			out = append(out, derivation{pred: tr.rule.Head.Pred, tup: head, loc: loc, cause: cause, retract: true})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replacedLosses cascades the disappearance of a key-replaced old tuple:
// its delta-join consequences become retraction candidates, and its old
// aggregate groups recompute (the new tuple's groups were already
// covered when the replacement fired).
func (n *Node) replacedLosses(pred string, old value.Tuple, cause prov.ID) ([]derivation, error) {
	out, err := n.lossCandidates(pred, old, cause)
	if err != nil {
		return nil, err
	}
	for _, r := range n.net.aggTriggers[pred] {
		ds, err := n.recomputeAggregate(r, pred, old)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}

// retractDerived applies a delete-rule firing: remove the exact tuple
// and recompute aggregates over the head predicate, exactly as expiry
// does. Plain triggers do not re-fire — a retraction cascading through
// positive rules would diverge from the stratified engine, where delete
// rules run only after their stratum's fixpoint.
func (n *Node) retractDerived(r *ndlog.Rule, pred string, tup value.Tuple) ([]derivation, error) {
	t, ok := n.tables[pred]
	if !ok || !t.Delete(tup) {
		return nil, nil // already gone, or never derived
	}
	n.net.prov.Retract(n.net.now, n.ID, pred, tup, "delete_rule "+r.Label, 0)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: n.net.now, Kind: obs.EvExpired, Node: n.ID, Pred: pred, Tuple: tup.String()})
	}
	n.net.lastChange = n.net.now
	var out []derivation
	for _, ar := range n.net.aggTriggers[pred] {
		ds, err := n.recomputeAggregate(ar, pred, tup)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}

// evalRuleDelta evaluates rule r with body literal idx bound to the new
// tuple, running the rule's compiled per-literal delta plan on the shared
// executor against the local store.
func (n *Node) evalRuleDelta(r *ndlog.Rule, idx int, delta value.Tuple) ([]derivation, error) {
	if agg, _ := r.Head.HeadAgg(); agg != nil {
		return nil, nil // aggregate rules are recomputed, not delta-joined
	}
	ro := n.net.ruleObs[r]
	if ro != nil && ro.eval != nil {
		defer func(t0 time.Time) { ro.eval.Observe(time.Since(t0)) }(time.Now())
	}
	plan := n.net.an.Plans[r].Delta[idx]
	x := n.net.exec(plan)
	var out []derivation
	n.net.deltaBuf[0] = delta
	probes, err := x.Run(n, n.net.deltaBuf[:], nil, func([]value.V) error {
		tup := make(value.Tuple, len(plan.HeadExprs))
		if err := plan.BuildHead(x.Env(), tup); err != nil {
			return fmt.Errorf("dist: rule %s head: %w", r.Label, err)
		}
		loc, err := n.headLoc(r, tup)
		if err != nil {
			return err
		}
		if r.Delete && loc != n.ID {
			return fmt.Errorf("dist: delete rule %s retracts at remote node %s; only local retractions are supported", r.Label, loc)
		}
		n.net.nm.derivations.Add(1)
		if ro != nil {
			ro.firings.Add(1)
			ro.emitted.Add(1)
		}
		var cause prov.ID
		if n.net.prov.Enabled() {
			ants := n.collectAnts(plan, x, n.net.provAnts[:0])
			n.net.provAnts = ants
			cause = n.net.prov.Rule(n.net.now, n.ID, r.Label, ants)
		}
		d := derivation{pred: r.Head.Pred, tup: tup, loc: loc, cause: cause}
		if r.Delete {
			d.del = r
		}
		out = append(out, d)
		return nil
	})
	n.net.nm.joinProbes.Add(probes)
	if ro != nil {
		ro.probes.Add(probes)
	}
	return out, err
}

// collectAnts resolves the antecedent tuple versions of the frame the
// executor is currently emitting: for each scan/delta step, the bound
// candidate tuple's live provenance entry at this node. Tuples with no
// recorded version (externally populated tables) are skipped.
func (n *Node) collectAnts(plan *ndlog.Plan, x *store.Exec, ants []prov.ID) []prov.ID {
	for _, si := range plan.AntSteps {
		st := &plan.Steps[si]
		if id := n.net.prov.Current(n.ID, st.Pred, x.CurTuple(si)); id != 0 {
			ants = append(ants, id)
		}
	}
	return ants
}

// evalAggregate recomputes an aggregate rule through the shared fold
// (store.Aggregate) and emits the per-group results. A non-nil seed binds
// the group variables, restricting both the join (via the compiled seeded
// plan) and the output to one group; a seeded recompute that finds the
// group empty deletes the stale aggregate tuple locally. Emitting into a
// keyed table makes the recompute idempotent: unchanged groups are
// no-ops. Groups are emitted in first-seen order, which is deterministic
// under the seeded scan shuffle.
func (n *Node) evalAggregate(r *ndlog.Rule, seed map[string]value.V) ([]derivation, error) {
	ro := n.net.ruleObs[r]
	if ro != nil && ro.eval != nil {
		defer func(t0 time.Time) { ro.eval.Observe(time.Since(t0)) }(time.Now())
	}
	rp := n.net.an.Plans[r]
	plan := rp.Full
	var seedVals []value.V
	if seed != nil && rp.Seeded != nil {
		plan = rp.Seeded
		seedVals = make([]value.V, len(plan.SeedVars))
		for i, name := range plan.SeedVars {
			seedVals[i] = seed[name]
		}
	} else {
		seed = nil // no seeded plan: recompute every group
	}
	x := n.net.exec(plan)
	var ants func() []prov.ID
	if n.net.prov.Enabled() {
		ants = func() []prov.ID {
			n.net.provAnts = n.collectAnts(plan, x, n.net.provAnts[:0])
			return n.net.provAnts
		}
	}
	groups, probes, err := store.Aggregate(x, n, seedVals, ants)
	n.net.nm.joinProbes.Add(probes)
	if ro != nil {
		ro.probes.Add(probes)
	}
	if err != nil {
		return nil, err
	}
	// A seeded recompute that finds its group empty retracts the stale
	// aggregate tuple (locally) and cascades its loss.
	if seed != nil && len(groups) == 0 {
		return n.retractAggGroup(r, plan.AggIdx, seed)
	}
	var out []derivation
	for _, g := range groups {
		tup := g.Head(plan)
		loc, err := n.headLoc(r, tup)
		if err != nil {
			return nil, err
		}
		n.net.nm.derivations.Add(1)
		if ro != nil {
			ro.firings.Add(1)
			ro.emitted.Add(1)
		}
		var cause prov.ID
		if n.net.prov.Enabled() {
			cause = n.net.prov.Rule(n.net.now, n.ID, r.Label, g.Ants)
		}
		out = append(out, derivation{pred: r.Head.Pred, tup: tup, loc: loc, cause: cause})
	}
	return out, nil
}

func (n *Node) headLoc(r *ndlog.Rule, tup value.Tuple) (string, error) {
	if r.Head.Loc < 0 {
		return n.ID, nil // location-free: store locally
	}
	v := tup[r.Head.Loc]
	if v.K != value.KindAddr {
		return "", fmt.Errorf("dist: rule %s: head location argument %v is not an address", r.Label, v)
	}
	return v.S, nil
}

// retractAggGroup removes the stale aggregate tuple for the group named by
// seed, when the head table's primary key is determined by the group
// variables, and cascades the removed tuple's downstream losses.
func (n *Node) retractAggGroup(r *ndlog.Rule, aggIdx int, seed map[string]value.V) ([]derivation, error) {
	t := n.table(r.Head.Pred)
	if len(t.Keys) == 0 {
		return nil, nil // whole-tuple key: cannot name the stale tuple without its value
	}
	sub := make(value.Tuple, len(t.Keys))
	for i, c := range t.Keys {
		if c == aggIdx {
			return nil, nil // the aggregate column is part of the key
		}
		v, ok := r.Head.Args[c].(ndlog.VarE)
		if !ok {
			return nil, nil
		}
		val, bound := seed[v.Name]
		if !bound {
			return nil, nil
		}
		sub[i] = val
	}
	old, ok := t.DeleteByKey(sub.Key())
	if !ok {
		return nil, nil
	}
	n.net.nm.expirations.Add(1)
	n.net.prov.Retract(n.net.now, n.ID, r.Head.Pred, old, "agg_empty", 0)
	if n.net.tracer != nil {
		n.net.tracer.Emit(obs.Event{T: n.net.now, Kind: obs.EvExpired, Node: n.ID, Pred: r.Head.Pred})
	}
	n.net.lastChange = n.net.now
	if n.net.opts.ScalarDelete {
		return nil, nil
	}
	return n.lossCandidates(r.Head.Pred, old, 0)
}
