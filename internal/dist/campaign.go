package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/value"
)

// This file is the chaos-campaign layer: execute a routing program under
// a declarative fault plan, then check the paper's verified properties
// against the ground truth of the surviving topology. A campaign runs N
// such executions across derived seeds; any violation reports the seed
// and plan for one-command replay.

// Chaos-run timing, in simulated time units. Every materialize
// declaration is rewritten to ChaosLifetime (unless Hard), so stale
// derivations expire instead of persisting forever — the paper's
// soft-state recovery argument. Refresh waves every chaosRefresh keep
// live state alive: three per lifetime, so a route outlives two
// consecutive lost refreshes. Three waves do not stop every blink: a
// link with ~15% loss can drop every refresh of a route for a whole
// lifetime, and the route then expires and re-derives. Channel noise
// never stops, so such a dropout can happen at any time in a run.
const (
	// ChaosLifetime is the soft-state lifetime of every chaos run.
	ChaosLifetime = 12.0
	chaosRefresh  = 4.0
	// chaosQuiet is the gap between the two stability samples: a
	// converged network shows identical bestPathCost digests chaosQuiet
	// apart.
	chaosQuiet = 12.0
)

// chaosSettle is how long after the plan's last fault a network of the
// given size gets to reconverge before the first sample. Stale soft state
// flushes in a staircase: a refresh wave can re-derive a stale downstream
// entry from a stale upstream one right up until the upstream expires, so
// a dead chain of depth k takes (k+1)·ChaosLifetime to drain. No
// derivation chain is deeper than a simple path, so the window is
// (nodes+1)·ChaosLifetime plus two refresh intervals.
func chaosSettle(nodes int) float64 {
	return float64(nodes+1)*ChaosLifetime + 2*chaosRefresh
}

// ChaosOptions configures one chaos execution.
type ChaosOptions struct {
	// Seed drives everything random in the run (scan shuffle, fault
	// channels); the same seed replays the identical run.
	Seed uint64
	// Hard skips the soft-state rewrite and the refresh driver, running
	// the program exactly as written. Hard-state programs cannot retract
	// routes through dead links, so under link faults the safety
	// invariant is expected to fail — the campaign's own negative control
	// (and the demonstration that replay reproduces a violation).
	Hard bool
	// Obs and Trace are passed through to the network.
	Obs   *obs.Collector
	Trace *obs.Tracer
	// Prov, when set, records derivation provenance; a failing run then
	// carries a root-cause chain from each violating tuple back to the
	// fault events on its lineage.
	Prov *prov.Recorder
	// Self-healing layer (see Options): reliable ack/retransmit channels,
	// periodic base-table checkpoints, and anti-entropy repair. All three
	// are forced off under Hard — the negative control runs the bare
	// runtime, and its report omits the recovery metrics entirely. With
	// CheckpointEvery > 0 (and a plan whose every crashed node restarts)
	// the run also re-executes the plan without its node faults as a
	// never-crashed oracle and requires each restarted node's base and
	// bestPathCost tables to match it (check "restore"). With Reliable the
	// per-link at-least-once accounting is checked (check "reliability").
	Reliable        bool
	CheckpointEvery float64
	AntiEntropy     bool
	// ScalarDelete disables the incremental deletion cascade (see
	// Options.ScalarDelete): link failures only delete the link tuple and
	// stale derivations wait for soft-state expiry. Forced on under Hard —
	// the negative control is precisely the pre-cascade semantics.
	ScalarDelete bool

	// oracle marks the internal never-crashed re-run of the restore
	// check, which must not itself spawn an oracle or measure recovery.
	oracle bool
}

// DefaultChaosOptions returns the campaign defaults: soft state with
// refresh, the self-healing layer off. The run's timing is fixed (see
// ChaosLifetime and chaosSettle), so the defaults are the zero value.
func DefaultChaosOptions() ChaosOptions { return ChaosOptions{} }

// Violation is one invariant breach, with the violating tuple in
// machine-readable form when the check can name one. Msg carries the
// full human-readable sentence; String returns it, so formatted output
// is unchanged from the era when violations were plain strings.
type Violation struct {
	Check string `json:"check"`           // "safety", "liveness", "conservation"
	Node  string `json:"node,omitempty"`  // node holding the violating state
	Pred  string `json:"pred,omitempty"`  // predicate of the violating tuple
	Tuple string `json:"tuple,omitempty"` // rendered violating tuple
	Msg   string `json:"msg"`

	tup value.Tuple // the violating tuple, for provenance lookup
}

func (v Violation) String() string { return v.Msg }

// ChaosReport is the outcome of one chaos execution.
type ChaosReport struct {
	Seed   uint64       `json:"seed"`
	Plan   *faults.Plan `json:"plan"`
	Stable bool         `json:"stable"` // bestPathCost digest unchanged across the chaosQuiet window
	// Cancelled marks a run stopped mid-simulation by context
	// cancellation: the invariant checks were skipped (partial state is
	// inconclusive, not a violation) and only the stats up to the stop
	// point are reported.
	Cancelled  bool        `json:"cancelled,omitempty"`
	Violations []Violation `json:"violations,omitempty"`
	Live       []string    `json:"live"` // nodes up at the end of the run
	Stats      Stats       `json:"stats"`
	CheckedAt  float64     `json:"checked_at"` // simulated time of the final sample
	// RootCause holds one provenance-derived chain per violating tuple
	// (requires ChaosOptions.Prov): the fault events on the tuple's
	// lineage, matched against the plan's scheduled events.
	RootCause []string `json:"root_cause,omitempty"`
	// Recoveries lists the measured restart→reconvergence time of every
	// restarted node; RecoveryMS aggregates them as percentiles of
	// simulated milliseconds. Both are absent (not zero) under Hard, and
	// on plans that restart no node.
	Recoveries []Recovery     `json:"recoveries,omitempty"`
	RecoveryMS *RecoveryStats `json:"recovery_ms,omitempty"`
	// RetransmitsByLink counts the reliable layer's retransmissions per
	// directed link (absent unless Reliable).
	RetransmitsByLink map[string]int64 `json:"retransmits_by_link,omitempty"`
}

// Recovery is one measured crash-recovery: the time from a node's restart
// until its bestPathCost table first exactly matched the shortest costs
// of the then-surviving topology (sampled at 1-time-unit granularity).
type Recovery struct {
	Node      string  `json:"node"`
	RestartAt float64 `json:"restart_at"`
	MS        float64 `json:"ms"` // simulated milliseconds; -1 if never recovered
	Recovered bool    `json:"recovered"`
}

// RecoveryStats summarizes recovery times in simulated milliseconds.
// Unrecovered nodes are excluded from the percentiles and counted
// separately (a node that never reconverged has no finite recovery time).
type RecoveryStats struct {
	Samples     int     `json:"samples"`
	Unrecovered int     `json:"unrecovered,omitempty"`
	P50         float64 `json:"p50"`
	P95         float64 `json:"p95"`
	Max         float64 `json:"max"`
}

// recoveryStats aggregates a run's recoveries (nil when there are none).
func recoveryStats(rs []Recovery) *RecoveryStats {
	if len(rs) == 0 {
		return nil
	}
	var ms []float64
	st := &RecoveryStats{}
	for _, r := range rs {
		if r.Recovered {
			ms = append(ms, r.MS)
		} else {
			st.Unrecovered++
		}
	}
	st.Samples = len(ms)
	if len(ms) > 0 {
		sort.Float64s(ms)
		st.P50 = percentile(ms, 0.50)
		st.P95 = percentile(ms, 0.95)
		st.Max = ms[len(ms)-1]
	}
	return st
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RecoveryPercentiles pools every run's recovery samples into
// campaign-level percentiles (nil when no run measured any).
func RecoveryPercentiles(reports []*ChaosReport) *RecoveryStats {
	var all []Recovery
	for _, r := range reports {
		all = append(all, r.Recoveries...)
	}
	return recoveryStats(all)
}

// Failed reports whether the run violated any invariant.
func (r *ChaosReport) Failed() bool { return len(r.Violations) > 0 }

// JSON renders the report as a single machine-readable line, so test
// harnesses can assert the violating check and tuple of a replay.
func (r *ChaosReport) JSON() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		return []byte(fmt.Sprintf(`{"seed":%d,"error":%q}`, r.Seed, err))
	}
	return b
}

// RunChaos executes the program source over topo under plan and checks
// the route invariants at quiescence. The checks read path vector's
// bestPathCost(S,D,C) and bestPath(S,D,P,C) by position, so a program
// that does not derive both with those arities is refused with an error
// before anything runs. topo is mutated in place by the faults; pass a
// fresh topology per run. Cancelling ctx stops the
// simulation between events and returns a report with Cancelled set and
// the invariant checks skipped — a cancelled run is inconclusive, never
// a pass or a violation.
func RunChaos(ctx context.Context, src string, topo *netgraph.Topology, plan *faults.Plan, o ChaosOptions) (*ChaosReport, error) {
	rep, _, err := runChaos(ctx, src, topo, plan, o)
	return rep, err
}

// runChaos is RunChaos, additionally returning the final network so the
// restore-equivalence check can compare the oracle's tables.
func runChaos(ctx context.Context, src string, topo *netgraph.Topology, plan *faults.Plan, o ChaosOptions) (*ChaosReport, *Network, error) {
	if o.Hard {
		// The negative control runs the bare runtime: the self-healing
		// mechanisms are forced off, the deletion cascade with them, and
		// the recovery metrics are reported as absent, not zero.
		o.Reliable, o.CheckpointEvery, o.AntiEntropy = false, 0, false
		o.ScalarDelete = true
	}
	prog, err := ndlog.Parse("chaos", src)
	if err != nil {
		return nil, nil, err
	}
	if err := checkRouteRelations(prog); err != nil {
		return nil, nil, err
	}
	if !o.Hard {
		soften(prog, ChaosLifetime)
	}
	// The restore-equivalence check re-runs the plan without its node
	// faults over a pristine copy of the topology (this run mutates topo
	// in place). It needs every crashed node to restart — otherwise the
	// oracle's surviving topology differs and the tables legitimately
	// diverge.
	restoreCheck := o.CheckpointEvery > 0 && !o.oracle && len(plan.Nodes) > 0
	for _, nf := range plan.Nodes {
		if nf.Restart <= nf.Crash {
			restoreCheck = false
		}
	}
	var pristine *netgraph.Topology
	if restoreCheck {
		pristine = copyTopo(topo)
	}
	horizon := plan.Horizon()
	stableFrom := horizon + chaosSettle(len(topo.Nodes))
	checkAt := stableFrom + chaosQuiet
	net, err := NewNetwork(prog, topo, Options{
		MaxTime:           checkAt + 1,
		Seed:              o.Seed,
		LoadTopologyLinks: true,
		Obs:               o.Obs,
		Trace:             o.Trace,
		Prov:              o.Prov,
		Reliable:          o.Reliable,
		CheckpointEvery:   o.CheckpointEvery,
		AntiEntropy:       o.AntiEntropy,
		ScalarDelete:      o.ScalarDelete,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := net.ApplyPlan(plan); err != nil {
		return nil, nil, err
	}
	if !o.Hard {
		net.InjectRefresh(chaosRefresh, chaosRefresh, checkAt+chaosRefresh)
	}

	rep := &ChaosReport{Seed: o.Seed, Plan: plan}
	partial := func() (*ChaosReport, *Network, error) {
		rep.Cancelled = true
		rep.Live = net.LiveNodes()
		rep.Stats = net.Stats()
		rep.CheckedAt = net.Now()
		return rep, net, nil
	}

	// Recovery measurement: every restarted node is watched from its
	// restart instant, sampling at 1-time-unit granularity, until its
	// bestPathCost table first exactly matches the shortest costs of the
	// then-surviving topology. Skipped (and absent from the report) under
	// Hard and in the oracle re-run.
	var targets []Recovery
	if !o.Hard && !o.oracle {
		for _, nf := range plan.Nodes {
			if nf.Restart > nf.Crash {
				targets = append(targets, Recovery{Node: nf.Node, RestartAt: nf.Restart, MS: -1})
			}
		}
		sort.Slice(targets, func(i, j int) bool {
			if targets[i].RestartAt != targets[j].RestartAt {
				return targets[i].RestartAt < targets[j].RestartAt
			}
			return targets[i].Node < targets[j].Node
		})
	}
	sample := func(t float64) {
		var truth map[string]map[string]int64
		for i := range targets {
			tg := &targets[i]
			if tg.Recovered || tg.RestartAt > t+1e-9 || net.NodeDown(tg.Node) {
				continue
			}
			if truth == nil {
				truth = net.GroundTruth()
			}
			if nodeRoutesMatch(net, truth, tg.Node) {
				tg.Recovered = true
				tg.MS = (t - tg.RestartAt) * 1000
			}
		}
	}
	if len(targets) > 0 {
		for t := targets[0].RestartAt; t < stableFrom; t++ {
			r, err := net.RunUntilCtx(ctx, t)
			if err != nil {
				return nil, nil, err
			}
			if r.Cancelled {
				return partial()
			}
			sample(t)
			done := true
			for i := range targets {
				if !targets[i].Recovered {
					done = false
				}
			}
			if done {
				break
			}
		}
	}

	r1, err := net.RunUntilCtx(ctx, stableFrom)
	if err != nil {
		return nil, nil, err
	}
	if r1.Cancelled {
		return partial()
	}
	d1 := net.Snapshot("bestPathCost")
	r2, err := net.RunUntilCtx(ctx, checkAt)
	if err != nil {
		return nil, nil, err
	}
	if r2.Cancelled {
		return partial()
	}
	d2 := net.Snapshot("bestPathCost")
	rep.Stable = d1 == d2
	rep.Live = net.LiveNodes()
	rep.CheckedAt = net.Now()
	sample(checkAt) // stragglers that reconverged only inside the settle window
	if len(targets) > 0 {
		rep.Recoveries = targets
		rep.RecoveryMS = recoveryStats(targets)
	}
	if o.Reliable {
		rep.RetransmitsByLink = map[string]int64{}
		for _, rl := range net.RelLinkStats() {
			if rl.Retransmits > 0 {
				rep.RetransmitsByLink[rl.Link] = rl.Retransmits
			}
		}
	}
	rep.Stats = net.Stats()

	if !rep.Stable {
		rep.Violations = append(rep.Violations, Violation{
			Check: "liveness",
			Msg:   "liveness: bestPathCost still changing between samples (not converged)",
		})
	}
	rep.Violations = append(rep.Violations, checkRoutes(net)...)
	if v := checkConservation(net); v != "" {
		rep.Violations = append(rep.Violations, Violation{Check: "conservation", Msg: v})
	}
	if o.Reliable {
		rep.Violations = append(rep.Violations, checkReliability(net)...)
	}
	if restoreCheck {
		vs, err := checkRestore(ctx, src, pristine, plan, o, net)
		if err != nil {
			return nil, nil, err
		}
		rep.Violations = append(rep.Violations, vs...)
	}
	if rep.Failed() && net.Prov().Enabled() {
		rep.RootCause = rootCause(net, plan, rep.Violations)
	}
	return rep, net, nil
}

// routeRelations are the relations, with their arities, that checkRoutes
// and the recovery sampler read by position.
var routeRelations = []struct {
	pred  string
	arity int
}{{"bestPathCost", 3}, {"bestPath", 4}}

// checkRouteRelations refuses a program the route checks cannot read:
// one that has no rule deriving one of routeRelations, or has a rule
// deriving one at another arity.
func checkRouteRelations(prog *ndlog.Program) error {
	for _, rr := range routeRelations {
		derived := false
		for _, r := range prog.Rules {
			if r.Delete || r.Head.Pred != rr.pred {
				continue
			}
			if len(r.Head.Args) != rr.arity {
				return fmt.Errorf("dist: chaos checks read %s/%d, but rule %s derives %s/%d",
					rr.pred, rr.arity, r.Label, rr.pred, len(r.Head.Args))
			}
			derived = true
		}
		if !derived {
			return fmt.Errorf("dist: chaos checks read %s/%d, which the program does not derive", rr.pred, rr.arity)
		}
	}
	return nil
}

// nodeRoutesMatch reports whether src's bestPathCost table exactly equals
// the shortest costs from src in truth (ignoring routes to currently-down
// destinations): no wrong, stale, or missing entry.
func nodeRoutesMatch(net *Network, truth map[string]map[string]int64, src string) bool {
	want := truth[src]
	got := map[string]int64{}
	for _, tup := range net.Query(src, "bestPathCost") {
		got[tup[1].S] = tup[2].I
	}
	for dst, c := range want {
		if net.NodeDown(dst) {
			continue
		}
		if gc, ok := got[dst]; !ok || gc != c {
			return false
		}
	}
	for dst := range got {
		if _, ok := want[dst]; !ok {
			return false
		}
	}
	return true
}

// copyTopo deep-copies a topology (runs mutate theirs in place).
func copyTopo(t *netgraph.Topology) *netgraph.Topology {
	return &netgraph.Topology{
		Name:  t.Name,
		Nodes: append([]string(nil), t.Nodes...),
		Links: append([]netgraph.Link(nil), t.Links...),
	}
}

// checkReliability asserts the at-least-once accounting of every reliable
// link: each assigned sequence number is acknowledged, explicitly given
// up, or still pending — nothing is silently lost by the protocol itself.
func checkReliability(net *Network) []Violation {
	var out []Violation
	for _, rl := range net.RelLinkStats() {
		if rl.Assigned != rl.Acked+rl.GaveUp+rl.Pending {
			out = append(out, Violation{
				Check: "reliability",
				Msg: fmt.Sprintf("reliability: link %s assigned %d != acked %d + gave_up %d + pending %d",
					rl.Link, rl.Assigned, rl.Acked, rl.GaveUp, rl.Pending),
			})
		}
	}
	return out
}

// checkRestore re-runs the plan stripped of its node faults as a
// never-crashed oracle and compares, for every restarted node, the base
// tables and the bestPathCost table (content digests) against the main
// run — checkpoint restore plus repair must leave a restarted node
// indistinguishable from one that never crashed. bestPath is excluded:
// equal-cost ties legitimately break differently across runs.
func checkRestore(ctx context.Context, src string, pristine *netgraph.Topology, plan *faults.Plan, o ChaosOptions, net *Network) ([]Violation, error) {
	orPlan := *plan
	orPlan.Nodes = nil
	oo := o
	oo.oracle = true
	oo.Obs, oo.Trace, oo.Prov = nil, nil, nil
	orRep, orNet, err := runChaos(ctx, src, pristine, &orPlan, oo)
	if err != nil {
		return nil, fmt.Errorf("restore oracle: %w", err)
	}
	if orRep.Cancelled {
		return nil, nil // inconclusive, not a violation
	}
	restarted := map[string]bool{}
	var nodes []string
	for _, nf := range plan.Nodes {
		if !restarted[nf.Node] {
			restarted[nf.Node] = true
			nodes = append(nodes, nf.Node)
		}
	}
	sort.Strings(nodes)
	preds := append(net.BasePreds(), "bestPathCost")
	var out []Violation
	for _, id := range nodes {
		for _, pred := range preds {
			if got, want := net.TableDigest(id, pred), orNet.TableDigest(id, pred); got != want {
				out = append(out, Violation{
					Check: "restore",
					Node:  id,
					Pred:  pred,
					Msg: fmt.Sprintf("restore: %s %s digest %016x != never-crashed oracle %016x",
						id, pred, got, want),
				})
			}
		}
	}
	return out, nil
}

// rootCause walks each violating tuple's recorded lineage and collects
// the fault events implicated in it (faults that retracted lineage
// support, crashes of lineage nodes, failures of crossed links),
// annotating each with the matching scheduled event of the fault plan.
func rootCause(net *Network, plan *faults.Plan, vs []Violation) []string {
	rec := net.Prov()
	events := plan.Events()
	var out []string
	for _, v := range vs {
		if v.Pred == "" || v.tup == nil {
			continue
		}
		id := rec.Current(v.Node, v.Pred, v.tup)
		if id == 0 {
			continue
		}
		lin := rec.Lineage(id, 0)
		fids := rec.FaultsOn(lin)
		if len(fids) == 0 {
			out = append(out, fmt.Sprintf("%s%s @%s: lineage of %d entries, no fault event implicated",
				v.Pred, v.tup, v.Node, len(lin)))
			continue
		}
		parts := make([]string, len(fids))
		for i, fid := range fids {
			parts[i] = rec.Describe(fid)
			if pe := matchPlanEvent(events, rec.Get(fid).T); pe != "" {
				parts[i] += " [plan: " + pe + "]"
			}
		}
		out = append(out, fmt.Sprintf("%s%s @%s <- %s", v.Pred, v.tup, v.Node, strings.Join(parts, "; ")))
	}
	return out
}

// matchPlanEvent names the plan events scheduled at time t (fault
// entries recorded by the runtime carry the simulated time their plan
// event fired at).
func matchPlanEvent(events []faults.PlanEvent, t float64) string {
	var hits []string
	for _, e := range events {
		if e.At > t-1e-9 && e.At < t+1e-9 {
			hits = append(hits, e.String())
		}
	}
	return strings.Join(hits, ", ")
}

// soften rewrites every materialize declaration to the given soft-state
// lifetime, turning a hard-state program into the refresh-driven
// soft-state form the paper's recovery argument assumes.
func soften(p *ndlog.Program, lifetime float64) {
	for i := range p.Materialized {
		p.Materialized[i].Lifetime = ndlog.Lifetime{Seconds: lifetime}
	}
}

// checkRoutes verifies the safety invariant: on every live node, the
// bestPathCost table equals the all-pairs shortest costs of the surviving
// topology (both directions: no stale or wrong entry, no missing route),
// and every bestPath entry is a valid path of matching cost.
func checkRoutes(net *Network) []Violation {
	var out []Violation
	safety := func(msg string, node, pred string, tup value.Tuple) {
		v := Violation{Check: "safety", Node: node, Pred: pred, Msg: msg, tup: tup}
		if tup != nil {
			v.Tuple = tup.String()
		}
		out = append(out, v)
	}
	truth := net.GroundTruth()
	hasLink := map[string]int64{}
	for _, l := range net.Topology().Links {
		hasLink[l.Src+"|"+l.Dst] = l.Cost
	}
	for _, src := range net.LiveNodes() {
		want := truth[src]
		got := map[string]int64{}
		for _, tup := range net.Query(src, "bestPathCost") {
			got[tup[1].S] = tup[2].I
		}
		for dst, c := range want {
			if net.NodeDown(dst) {
				continue // a reachable-by-topo but crashed node holds no state; routes to it are checked below
			}
			gc, ok := got[dst]
			if !ok {
				safety(fmt.Sprintf("safety: %s has no bestPathCost to %s (want %d)", src, dst, c),
					src, "bestPathCost", nil)
			} else if gc != c {
				safety(fmt.Sprintf("safety: %s bestPathCost to %s = %d, want %d", src, dst, gc, c),
					src, "bestPathCost", value.Tuple{value.Addr(src), value.Addr(dst), value.Int(gc)})
			}
		}
		for dst, gc := range got {
			if _, ok := want[dst]; !ok {
				safety(fmt.Sprintf("safety: %s has stale bestPathCost to unreachable %s (= %d)", src, dst, gc),
					src, "bestPathCost", value.Tuple{value.Addr(src), value.Addr(dst), value.Int(gc)})
			}
		}
		// bestPath entries: cost agrees with bestPathCost truth and the
		// path vector is a real path in the surviving topology.
		for _, tup := range net.Query(src, "bestPath") {
			dst, p, c := tup[1].S, tup[2], tup[3].I
			wc, ok := want[dst]
			if !ok {
				safety(fmt.Sprintf("safety: %s has stale bestPath to unreachable %s", src, dst),
					src, "bestPath", tup)
				continue
			}
			if c != wc {
				safety(fmt.Sprintf("safety: %s bestPath to %s costs %d, want %d", src, dst, c, wc),
					src, "bestPath", tup)
			}
			if msg := validPath(p, src, dst, c, hasLink); msg != "" {
				safety(fmt.Sprintf("safety: %s bestPath to %s: %s", src, dst, msg),
					src, "bestPath", tup)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Msg < out[j].Msg })
	return out
}

// validPath checks that p is a node list from src to dst whose links all
// exist in the surviving topology and sum to cost.
func validPath(p value.V, src, dst string, cost int64, hasLink map[string]int64) string {
	if p.K != value.KindList || len(p.L) < 2 {
		return fmt.Sprintf("path %s is not a node list", p)
	}
	if p.L[0].S != src || p.L[len(p.L)-1].S != dst {
		return fmt.Sprintf("path %s does not run %s→%s", p, src, dst)
	}
	sum := int64(0)
	for i := 0; i+1 < len(p.L); i++ {
		c, ok := hasLink[p.L[i].S+"|"+p.L[i+1].S]
		if !ok {
			return fmt.Sprintf("path %s uses dead link %s→%s", p, p.L[i].S, p.L[i+1].S)
		}
		sum += c
	}
	if sum != cost {
		return fmt.Sprintf("path %s sums to %d, claimed %d", p, sum, cost)
	}
	return ""
}

// checkConservation verifies message accounting on the (truncated) run:
// every sent message was delivered, dropped, or is still in flight.
func checkConservation(net *Network) string {
	s := net.Stats()
	pending := net.PendingMessages()
	if s.MessagesSent != s.MessagesDelivered+s.MessagesDropped+pending {
		return fmt.Sprintf("conservation: sent %d != delivered %d + dropped %d + pending %d",
			s.MessagesSent, s.MessagesDelivered, s.MessagesDropped, pending)
	}
	return ""
}

// Campaign runs N chaos executions with independently derived seeds.
type Campaign struct {
	// Source is the NDlog program under test.
	Source string
	// Topo builds a fresh topology per run (each run mutates its own).
	Topo func() *netgraph.Topology
	// Runs is the number of seeds to execute.
	Runs int
	// BaseSeed derives each run's seed via faults.Mix(BaseSeed, i).
	BaseSeed uint64
	// Gen scales the random fault plans.
	Gen faults.GenOptions
	// Opts configures each execution (Seed is overwritten per run).
	Opts ChaosOptions
	// Prov gives each run a fresh provenance recorder, so failure
	// reports carry root-cause chains (Opts.Prov, when set, takes
	// precedence and is shared across runs — replay use only).
	Prov bool
}

// SeedFor returns the seed of run i — the value fvn chaos --replay-seed
// takes to re-execute exactly that run.
func (c *Campaign) SeedFor(i int) uint64 { return faults.Mix(c.BaseSeed, i) }

// RunSeed executes one chaos run with an explicit seed (replay).
func (c *Campaign) RunSeed(ctx context.Context, seed uint64) (*ChaosReport, error) {
	topo := c.Topo()
	plan := faults.Generate(seed, topo, c.Gen)
	o := c.Opts
	o.Seed = seed
	if c.Prov && o.Prov == nil {
		o.Prov = prov.New()
	}
	return RunChaos(ctx, c.Source, topo, plan, o)
}

// RunOne executes run i of the campaign.
func (c *Campaign) RunOne(ctx context.Context, i int) (*ChaosReport, error) {
	return c.RunSeed(ctx, c.SeedFor(i))
}

// Execute runs the whole campaign, writing one line per run (and the
// seed + plan of every failure, for replay) to w when non-nil. It
// returns all reports; the error is reserved for setup failures, not
// invariant violations. Cancelling ctx stops the campaign between runs
// (and, via RunChaos, mid-run): the reports of completed runs are
// returned as-is — each is a pure function of its seed, so a later
// replay of the same seeds reproduces them exactly — and a run stopped
// mid-flight is appended with Cancelled set.
func (c *Campaign) Execute(ctx context.Context, w io.Writer) ([]*ChaosReport, error) {
	var reports []*ChaosReport
	failures := 0
	for i := 0; i < c.Runs; i++ {
		if ctx.Err() != nil {
			if w != nil {
				fmt.Fprintf(w, "campaign: cancelled after %d of %d runs\n", i, c.Runs)
			}
			return reports, nil
		}
		rep, err := c.RunOne(ctx, i)
		if err != nil {
			return reports, fmt.Errorf("chaos run %d (seed %d): %w", i, c.SeedFor(i), err)
		}
		reports = append(reports, rep)
		if rep.Cancelled {
			if w != nil {
				fmt.Fprintf(w, "run %3d seed %-20d CANCELLED (partial, invariants unchecked)\n", i, rep.Seed)
				fmt.Fprintf(w, "campaign: cancelled after %d of %d runs\n", i, c.Runs)
			}
			return reports, nil
		}
		if rep.Failed() {
			failures++
			if w != nil {
				fmt.Fprintf(w, "run %3d seed %-20d FAIL  %s\n", i, rep.Seed, rep.Plan.Summary())
				for _, v := range rep.Violations {
					fmt.Fprintf(w, "      %s\n", v)
				}
				for _, rc := range rep.RootCause {
					fmt.Fprintf(w, "      root cause: %s\n", rc)
				}
				fmt.Fprintf(w, "      report: %s\n", rep.JSON())
				fmt.Fprintf(w, "      replay: fvn chaos --replay-seed %d\n      plan: %s\n",
					rep.Seed, strings.ReplaceAll(string(rep.Plan.JSON()), "\n", "\n      "))
			}
		} else if w != nil {
			fmt.Fprintf(w, "run %3d seed %-20d ok    live=%d msgs=%d dup=%d drop=%d crash=%d  %s\n",
				i, rep.Seed, len(rep.Live), rep.Stats.MessagesSent, rep.Stats.MessagesDuplicated,
				rep.Stats.MessagesDropped, rep.Stats.Crashes, rep.Plan.Summary())
		}
	}
	if w != nil {
		if agg := RecoveryPercentiles(reports); agg != nil {
			fmt.Fprintf(w, "recovery: %d samples p50=%.0fms p95=%.0fms max=%.0fms unrecovered=%d\n",
				agg.Samples, agg.P50, agg.P95, agg.Max, agg.Unrecovered)
		}
		fmt.Fprintf(w, "campaign: %d runs, %d failed\n", c.Runs, failures)
	}
	return reports, nil
}
