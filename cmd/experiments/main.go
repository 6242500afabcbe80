// Command experiments regenerates every quantitative/behavioural claim of
// the paper (the per-experiment index E1-E13 of DESIGN.md) and prints a
// paper-vs-measured report — the source of EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/linear"
	"repro/internal/metarouting"
	"repro/internal/modelcheck"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/translate"
	"repro/internal/verify"
)

func hdr(id, claim string) {
	fmt.Printf("\n## %s\n   paper:    %s\n", id, claim)
}

func meas(format string, args ...any) {
	fmt.Printf("   measured: "+format+"\n", args...)
}

// When -trace is given, the distributed experiments (E7) run with this
// collector/tracer attached, the JSONL event stream lands in the given
// file, and the aggregated metrics print at the end of the report.
var (
	expObs   *obs.Collector
	expTrace *obs.Tracer
)

// mcWorkers is the worker count for the model-checking experiments (E11).
var mcWorkers int

func main() {
	tracePath := flag.String("trace", "", "write JSONL trace events for the distributed experiments to this file")
	flag.IntVar(&mcWorkers, "workers", runtime.NumCPU(), "model-checker workers for the E11 state-space sweeps")
	flag.Parse()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		expObs = obs.NewCollector()
		expTrace = obs.NewTracer(obs.NewJSONLSink(f))
	}

	fmt.Println("# FVN reproduction: paper claims vs measured results")
	fmt.Println("# (generated by cmd/experiments)")

	e1()
	e2()
	e3()
	e4()
	e5()
	e6()
	e7()
	e8()
	e9()
	e10()
	e11()
	e12()
	e13()
	e14()
	e15()
	e16()

	if expTrace != nil {
		fmt.Println("\n## observability (collector totals for the traced runs)")
		obs.WriteMetrics(os.Stdout, expObs)
		if err := expTrace.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func e1() {
	hdr("E1 (Figure 1)", "FVN unifies design, specification, verification, implementation in one pipeline")
	p, err := core.PathVector()
	if err != nil {
		panic(err)
	}
	res, err := p.Verify("bestPathStrong", core.BestPathStrongScript)
	if err != nil {
		panic(err)
	}
	net, err := p.Execute(netgraph.Ring(6), dist.DefaultOptions())
	if err != nil {
		panic(err)
	}
	run, err := net.Run()
	if err != nil {
		panic(err)
	}
	meas("one Protocol object: NDlog(%d rules) -> theory(%d defs) -> QED(%v) -> converged(%v, t=%.0f)",
		len(p.Program.Rules), len(p.Theory.Inductives), res.QED, run.Converged, run.Time)
}

func e2() {
	hdr("E2 (§3.1)", "NDlog rules r1-r4 map to inductive definitions (path as INDUCTIVE bool)")
	prog := ndlog.MustParse("pv", core.PathVectorSrc)
	an, _ := ndlog.Analyze(prog)
	th, err := translate.ToLogic(an, translate.Options{TheoremsForAggregates: true})
	if err != nil {
		panic(err)
	}
	pathDef, _ := th.Lookup("path")
	meas("path: %d clauses (r1, r2); bestPathCost axiomatized as witness+minimality; theory validates: %v",
		len(pathDef.Clauses()), th.Validate() == nil)
}

func e3() {
	hdr("E3 (§3.1)", "bestPathStrong takes 7 proof steps; PVS needs a fraction of a second")
	p, _ := core.PathVector()
	start := time.Now()
	res, err := p.Verify("bestPathStrong", core.BestPathStrongScript)
	if err != nil {
		panic(err)
	}
	meas("QED in %d proof steps, %.4fs wall clock", res.Steps, time.Since(start).Seconds())
}

func e4() {
	hdr("E4 (§3.1)", "the distance-vector protocol has count-to-infinity loops (shown in [22])")
	sys, err := linear.DistanceVector(linear.DVConfig{
		Topo: netgraph.Line(3), Dest: "n2", MaxCost: 8, FailA: "n1", FailB: "n2",
	})
	if err != nil {
		panic(err)
	}
	res := modelcheck.CheckReachable(context.Background(), linear.TS{Sys: sys}, linear.RouteAtCost(7), modelcheck.Options{MaxStates: 1 << 16})
	meas("after n1-n2 failure, cost-7 counting state reachable: %v (trace length %d, %d states explored)",
		res.Holds, len(res.Trace), res.Stats.StatesVisited)

	// Split horizon removes the loop.
	sysSH, _ := linear.DistanceVector(linear.DVConfig{
		Topo: netgraph.Line(3), Dest: "n2", MaxCost: 8, FailA: "n1", FailB: "n2",
	})
	for _, r := range sysSH.Rules {
		if r.Label == "follow" || r.Label == "improve" {
			e, _ := ndlog.ParseExpr("V2!=N")
			r.Body = append(r.Body, ndlog.Literal{Expr: e})
		}
	}
	resSH := modelcheck.CheckReachable(context.Background(), linear.TS{Sys: sysSH}, linear.RouteAtCost(7), modelcheck.Options{MaxStates: 1 << 16})
	meas("with split horizon: counting state reachable: %v", resSH.Holds)
}

func e5() {
	hdr("E5 (Fig 2, §3.2.1)", "BGP decomposes into activeAS/export/pvt/import/bestRoute components")
	m := component.NewBGPModel()
	th, err := m.Theory()
	if err != nil {
		panic(err)
	}
	names := th.PredicateNames()
	meas("component theory defines %v; pt composite present; bestRank_outStrong auto-generated", names)
	spp := bgp.Disagree()
	meas("Disagree: %d stable solutions (two, per Griffin-Wilfong); BadGadget: %d",
		len(spp.StableSolutions()), len(bgp.BadGadget().StableSolutions()))
}

func e6() {
	hdr("E6 (Fig 3, §3.2.2)", "components generate NDlog: t1_out :- t1_in,C1 / t3_out :- t1_out,t2_out,C3")
	m := component.NewBGPModel()
	prog, err := m.Program()
	if err != nil {
		panic(err)
	}
	an, err := ndlog.Analyze(prog)
	if err != nil {
		panic(err)
	}
	meas("BGP model -> %d NDlog rules over %d predicates; agg-in-cycle (selection feeds advertisement): %v",
		len(prog.Rules), len(an.Arity), an.AggInCycle)
}

func e7() {
	hdr("E7 (§3.2.2)", "distributed execution of generated path-vector with policies; delayed convergence under policy conflicts")
	triangle := func() *netgraph.Topology {
		topo := &netgraph.Topology{Name: "triangle", Nodes: []string{"o", "a", "b"}}
		for _, pr := range [][2]string{{"o", "a"}, {"o", "b"}, {"a", "b"}} {
			topo.Links = append(topo.Links,
				netgraph.Link{Src: pr[0], Dst: pr[1], Cost: 1, Latency: 1},
				netgraph.Link{Src: pr[1], Dst: pr[0], Cost: 1, Latency: 1})
		}
		return topo
	}
	run := func(policy component.PolicySpec, stagger bool, maxTime float64) dist.Result {
		m := component.NewBGPModel()
		prog, _ := m.Program()
		net, err := dist.NewNetwork(prog, triangle(), dist.Options{
			MaxTime: maxTime, LoadTopologyLinks: true, Obs: expObs, Trace: expTrace,
		})
		if err != nil {
			panic(err)
		}
		for _, lp := range policy.LPFacts(triangle()) {
			at := 0.0
			if stagger && lp[0].S == "a" {
				at = 50
			}
			net.Inject(at, lp[0].S, "lp", lp)
		}
		res, err := net.Run()
		if err != nil {
			panic(err)
		}
		return res
	}
	clean := run(component.ShortestPathPolicy(), false, 5000)
	conflict := run(component.DisagreePolicy("o", "a", "b"), false, 300)
	delayed := run(component.DisagreePolicy("o", "a", "b"), true, 5000)
	meas("clean policies: converged=%v at t=%.0f", clean.Converged, clean.Time)
	meas("Disagree, symmetric timing: converged=%v, %d route flips in 300 time units (divergence)",
		conflict.Converged, conflict.Stats.Flips)
	meas("Disagree, staggered activation: converged=%v at t=%.0f (delayed vs clean t=%.0f)",
		delayed.Converged, delayed.Time, clean.Time)
}

func e8() {
	hdr("E8 (§3.3)", "base algebra proof obligations are automatically discharged")
	for _, a := range metarouting.BaseAlgebras() {
		rep := metarouting.Discharge(a)
		meas("%-18s all 7 obligations discharged: %v (%d axiom instances)", a.Name(), rep.AllDischarged(), rep.Checks)
	}
	lp := metarouting.Discharge(metarouting.LpA(4))
	meas("%-18s fails exactly %v (labelApply=l is not monotone — the §3.3.2 LP instance)", "lpA[4]", lp.Failed())
}

func e9() {
	hdr("E9 (§3.3.2)", "BGPSystem = lexProduct[LP, RC]; composition obligations discharged by the type checker")
	sys := metarouting.BGPSystem()
	rep := metarouting.Discharge(sys)
	meas("%s: failed=%v (inherits LP's monotonicity failure — the algebraic root of Disagree)", sys.Name(), rep.Failed())
	safe := metarouting.SafeBGPSystem()
	srep := metarouting.Discharge(safe)
	pred := metarouting.LexProductTheorem(metarouting.PropsOf(metarouting.LpMonotoneA(4)), metarouting.PropsOf(metarouting.AddA(6, 2)))
	got := metarouting.PropsOf(safe)
	meas("%s: monotonicity discharged=%v; theorem predicts M=%v/SM=%v, instance M=%v/SM=%v",
		safe.Name(), !contains(srep.Failed(), "monotonicity"), pred.M, pred.SM, got.M, got.SM)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func e10() {
	hdr("E10 (§4.2)", "soft-state rewrites to hard state with explicit timestamps/lifetimes; heavier encoding")
	prog := ndlog.MustParse("soft", `
materialize(neighbor, 10, infinity, keys(1,2)).
materialize(link, infinity, infinity, keys(1,2)).
n2 twoHop(@N,M2) :- neighbor(@N,M), link(@M,M2).
`)
	hard, err := translate.RewriteSoftState(prog)
	if err != nil {
		panic(err)
	}
	before := len(prog.Rules[0].Body)
	after := len(hard.Rules[0].Body)
	meas("rule body grows %d -> %d literals (clock atom + timestamp + freshness bound)", before, after)
	an, _ := ndlog.Analyze(hard)
	sys, err := linear.FromNDlog(ndlogAnalysis(prog), nil)
	if err != nil {
		panic(err)
	}
	_ = an
	meas("linear-logic alternative: neighbor is a consumable resource (%d transition rules, no clock machinery)", len(sys.Rules))
}

func ndlogAnalysis(p *ndlog.Program) *ndlog.Analysis {
	an, err := ndlog.Analyze(p)
	if err != nil {
		panic(err)
	}
	return an
}

func e11() {
	hdr("E11 (§4.3)", "model checking simulates runs, detects undesirable states, yields counterexamples")
	sys := bgp.System{SPP: bgp.Disagree(), Mode: bgp.Subsets}
	lasso := modelcheck.FindLasso(context.Background(), sys, nil, modelcheck.Options{})
	meas("Disagree oscillation lasso found=%v (verdict %s): stem %d states from the initial state, cycle length %d, %d states visited",
		lasso.Holds, lasso.Verdict, lasso.LassoStart, len(lasso.Trace)-1-lasso.LassoStart, lasso.Stats.StatesVisited)
	async := modelcheck.FindLasso(context.Background(), bgp.System{SPP: bgp.Disagree(), Mode: bgp.Async}, nil, modelcheck.Options{})
	meas("under atomic-async activation: lasso verdict %s (Disagree converges on every fair atomic run)", async.Verdict)

	opts := modelcheck.Options{Workers: mcWorkers}
	counts := []int{}
	for k := 1; k <= 5; k++ {
		start := time.Now()
		n, res := modelcheck.CountReachable(context.Background(), bgp.System{SPP: bgp.DisagreeChain(k), Mode: bgp.Async}, opts)
		counts = append(counts, n)
		if k >= 4 {
			meas("disagree-chain k=%d: %d reachable states (verdict %s, depth %d) in %.3fs, %.0f states/s, %d workers",
				k, n, res.Verdict, res.Stats.MaxDepth, time.Since(start).Seconds(), res.Stats.StatesPerSecond(), mcWorkers)
		}
	}
	meas("state explosion (paper's motivation for theorem proving): disagree-chain k=1..5 -> %v states", counts)

	// A truncated exploration must never masquerade as a proof: the same
	// sweep under a tiny state bound comes back inconclusive, not "holds".
	capped := modelcheck.CheckInvariant(context.Background(), bgp.System{SPP: bgp.DisagreeChain(4), Mode: bgp.Async},
		func(modelcheck.State) bool { return true },
		modelcheck.Options{MaxStates: 100, Workers: mcWorkers})
	meas("k=4 invariant sweep capped at 100 states: verdict %s, %d states admitted (bound is exact)",
		capped.Verdict, capped.Stats.StatesVisited)

	// Larger linear-logic soft-state instance: distance vector on a 6-node
	// line after a link failure — the same system family E4 mines for its
	// count-to-infinity counterexample, scaled well past the 3-node E4
	// instance.
	dv, err := linear.DistanceVector(linear.DVConfig{
		Topo: netgraph.Line(6), Dest: "n5", MaxCost: 14, FailA: "n4", FailB: "n5",
	})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	n, res := modelcheck.CountReachable(context.Background(), linear.TS{Sys: dv}, modelcheck.Options{MaxStates: 1 << 18, Workers: mcWorkers})
	meas("linear soft-state DV, 6-node line with n4-n5 failure: %d states (verdict %s, depth %d) in %.3fs, %.0f states/s",
		n, res.Verdict, res.Stats.MaxDepth, time.Since(start).Seconds(), res.Stats.StatesPerSecond())
}

func e12() {
	hdr("E12 (§4.3)", "typically two-thirds of the proof steps can be automated")
	p, _ := core.PathVector()
	p.Theory.AddAxiom("linkCostPositive", core.LinkCostPositive())
	p.Theory.AddTheorem("pathCostPositive", core.PathCostPositive())

	type run struct {
		name   string
		script string
	}
	p.Theory.AddTheorem("pathDestination", core.PathDestination())
	p.Theory.AddTheorem("pathSource", core.PathSource())
	p.Theory.AddTheorem("pathLen2", core.PathLengthAtLeastTwo())
	corpus := []run{
		{"bestPathStrong", core.BestPathStrongScript},
		{"bestPathCostStrong", `(skosimp*) (expand "bestPathCost") (flatten) (grind)`},
		{"pathCostPositive", `
			(induct "path")
			(skosimp*) (lemma "linkCostPositive") (inst -3 S!1 D!1 C!1) (assert)
			(skosimp*) (lemma "linkCostPositive") (inst -7 S!2 Z!1 C1!1) (assert)`},
		{"pathDestination", core.PathDestinationScript},
		{"pathSource", "(induct \"path\") (skosimp*) (assert) (skosimp*) (assert)"},
		{"pathLen2", "(induct \"path\") (skosimp*) (assert) (skosimp*) (assert)"},
	}
	totalPrim, totalAuto := 0, 0
	for _, r := range corpus {
		pr, err := prover.New(p.Theory, r.name)
		if err != nil {
			panic(err)
		}
		res, err := pr.Prove(r.script)
		if err != nil {
			panic(err)
		}
		totalPrim += res.PrimSteps
		totalAuto += res.AutoPrim
		meas("%-20s %2d user steps, %3d primitive inferences, %3.0f%% automated",
			r.name, res.Steps, res.PrimSteps, res.AutomationRatio()*100)
	}
	meas("corpus overall: %.0f%% of primitive inferences performed by automated strategies (paper: ~67%%)",
		100*float64(totalAuto)/float64(totalPrim))
}

func e13() {
	hdr("E13 (§2.2)", "declarative networks perform efficiently relative to imperative implementations")
	for _, n := range []int{4, 8, 16} {
		spp := bgp.ShortestPathSPP(n)
		t0 := time.Now()
		v := bgp.NewSPVP(spp, bgp.RoundRobin, 0)
		v.Run(1 << 20)
		imp := time.Since(t0)

		prog := ndlog.MustParse("pv", core.PathVectorSrc)
		topo := netgraph.Ring(n)
		t1 := time.Now()
		net, err := dist.NewNetwork(prog, topo, dist.DefaultOptions())
		if err != nil {
			panic(err)
		}
		if _, err := net.Run(); err != nil {
			panic(err)
		}
		decl := time.Since(t1)
		ratio := float64(decl) / float64(imp)
		meas("ring n=%2d: imperative SPVP %8v, declarative NDlog (full simulator) %8v (%.0fx)", n, imp, decl, ratio)
	}
	// Engine-level comparison without the network simulation:
	eng, _ := datalog.New(ndlog.MustParse("pv", core.PathVectorSrc))
	topo := netgraph.Ring(16)
	for _, t := range topo.LinkTuples() {
		_ = eng.Insert("link", t)
	}
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		panic(err)
	}
	meas("centralized semi-naive engine, ring n=16 all-pairs: %v (%d derivations)", time.Since(t0), eng.Stats.Derivations)
}

func e14() {
	hdr("E14 (§4.2)", "soft-state refresh recovers routing state under churn (crashes, flaps, partitions); hard state does not")
	campaign := func(hard bool, runs int) (pass int, reports []*dist.ChaosReport) {
		opts := dist.DefaultChaosOptions()
		opts.Hard = hard
		c := &dist.Campaign{
			Source:   core.PathVectorSrc,
			Topo:     func() *netgraph.Topology { return netgraph.Ring(6) },
			Runs:     runs,
			BaseSeed: 2026,
			Gen:      faults.DefaultGenOptions(),
			Opts:     opts,
		}
		reports, err := c.Execute(context.Background(), nil)
		if err != nil {
			panic(err)
		}
		for _, rep := range reports {
			if !rep.Failed() {
				pass++
			}
		}
		return pass, reports
	}
	pass, reports := campaign(false, 25)
	var flaps, crashes, parts, msgs, drops int
	for _, rep := range reports {
		for _, lf := range rep.Plan.Links {
			flaps += len(lf.Flaps)
		}
		crashes += rep.Stats.Crashes
		parts += len(rep.Plan.Partitions)
		msgs += rep.Stats.MessagesSent
		drops += rep.Stats.MessagesDropped
	}
	meas("soft state, ring n=6: %d/%d randomized runs hold all invariants (%d flaps, %d crashes, %d partitions; %d msgs, %d dropped)",
		pass, len(reports), flaps, crashes, parts, msgs, drops)
	hardPass, hardReports := campaign(true, 10)
	meas("hard state (negative control): %d/%d runs violate an invariant after the same fault schedules",
		len(hardReports)-hardPass, len(hardReports))
}

// e16 measures the PR 9 self-healing layer against the soft-state
// staircase: on a ring of 8 under 20% loss on every link plus generated
// crash/restart cycles, a restarted node relying on refresh alone
// relearns an n-hop route only after up to (n+1)·Lifetime; reliable
// channels + checkpoints + anti-entropy must recover strictly below
// that bound, with zero invariant violations and per-seed bit-for-bit
// reproducibility.
func e16() {
	hdr("E16 (PR 9)", "self-healing (reliable channels, checkpoints, anti-entropy) beats the (n+1)*Lifetime soft-state recovery staircase")
	const runs, n = 25, 8
	gen := faults.DefaultGenOptions()
	gen.Crashes = 2
	gen.RestartProb = 1 // recovery is measured per restart: make every crash one
	gen.HealProb = 1

	runOne := func(i int, selfHeal bool) *dist.ChaosReport {
		seed := faults.Mix(2026, i)
		topo := netgraph.Ring(n)
		plan := faults.Generate(seed, topo, gen)
		plan.Default.Loss = 0.2 // 20% loss on every link, on top of generated noise
		o := dist.DefaultChaosOptions()
		o.Seed = seed
		if selfHeal {
			o.Reliable = true
			o.CheckpointEvery = 10
			o.AntiEntropy = true
		}
		rep, err := dist.RunChaos(context.Background(), core.PathVectorSrc, topo, plan, o)
		if err != nil {
			panic(err)
		}
		return rep
	}
	campaign := func(selfHeal bool) []*dist.ChaosReport {
		reports := make([]*dist.ChaosReport, runs)
		for i := range reports {
			reports[i] = runOne(i, selfHeal)
		}
		return reports
	}

	healed := campaign(true)
	fails := 0
	var retx, ckpts, pulls int
	for _, rep := range healed {
		if rep.Failed() {
			fails++
		}
		retx += rep.Stats.Retransmits
		ckpts += rep.Stats.Checkpoints
		pulls += rep.Stats.RepairPulls
	}
	rs := dist.RecoveryPercentiles(healed)
	bound := float64(n+1) * dist.ChaosLifetime * 1000 // ms
	meas("self-healing, ring n=%d, 20%% loss, %d seeds: %d invariant violations; recovery p50=%.0fms p95=%.0fms max=%.0fms over %d restarts (%d unrecovered; %d retransmits, %d checkpoints, %d repair pulls)",
		n, runs, fails, rs.P50, rs.P95, rs.Max, rs.Samples, rs.Unrecovered, retx, ckpts, pulls)
	meas("soft-state staircase bound (n+1)*Lifetime = %.0fms: p95 is %.1fx below it (strictly under: %v)",
		bound, bound/rs.P95, rs.P95 < bound)

	base := campaign(false)
	if bs := dist.RecoveryPercentiles(base); bs != nil {
		meas("refresh-only baseline, identical fault plans: recovery p50=%.0fms p95=%.0fms max=%.0fms (%d unrecovered)",
			bs.P50, bs.P95, bs.Max, bs.Unrecovered)
	}

	again := runOne(0, true)
	meas("same-seed reproducibility: re-run of seed %d byte-identical report: %v",
		again.Seed, string(again.JSON()) == string(healed[0].JSON()))
}

func e15() {
	hdr("E15 (§3-§4)", "the verification stack discharges its proof obligations automatically; FVN's cost is dominated by proof search, amortized by caching")
	obls, err := verify.StandardSuite()
	if err != nil {
		panic(err)
	}

	run := func(opts verify.Options) (verify.Report, time.Duration) {
		t0 := time.Now()
		rep := verify.NewPipeline(opts).Run(context.Background(), obls)
		return rep, time.Since(t0)
	}

	seq, seqDur := run(verify.Options{Workers: 1})
	meas("sequential, cache off: %d/%d obligations discharged in %v",
		seq.Proved(), len(seq.Results), seqDur.Round(time.Microsecond))

	cached, cDur := run(verify.Options{Workers: 1, Cache: true})
	meas("sequential + obligation cache: %d/%d discharged, %d served from cache, in %v",
		cached.Proved(), len(cached.Results), cached.Cached(), cDur.Round(time.Microsecond))

	par, pDur := run(verify.Options{Workers: 4, Cache: true})
	meas("4 workers + cache: %d/%d discharged in %v (GOMAXPROCS=%d)",
		par.Proved(), len(par.Results), pDur.Round(time.Microsecond), runtime.GOMAXPROCS(0))
}
