// Benchmark harness for the FVN reproduction: one benchmark per experiment
// of DESIGN.md's per-experiment index (E1-E13) plus the ablations (A1-A4).
// The paper is a vision paper without evaluation tables, so each benchmark
// regenerates the paper's quantitative claims (proof steps, automation
// ratio, convergence behaviour, obligation discharge) as measured series;
// EXPERIMENTS.md records the paper-vs-measured comparison produced by
// cmd/experiments.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/linear"
	"repro/internal/metarouting"
	"repro/internal/modelcheck"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/prover"
	"strings"

	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/value"
	"repro/internal/verify"
)

// --- E1: the full pipeline ---------------------------------------------------

func BenchmarkE1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := core.PathVector()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Verify("bestPathStrong", core.BestPathStrongScript); err != nil {
			b.Fatal(err)
		}
		net, err := p.Execute(netgraph.Ring(5), dist.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: NDlog → logic translation -------------------------------------------

func BenchmarkE2Translate(b *testing.B) {
	prog := ndlog.MustParse("pv", core.PathVectorSrc)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.ToLogic(an, translate.Options{TheoremsForAggregates: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: bestPathStrong, 7 steps, fraction of a second ------------------------

func BenchmarkE3BestPathStrongProof(b *testing.B) {
	p, err := core.PathVector()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		pr, err := prover.New(p.Theory, "bestPathStrong")
		if err != nil {
			b.Fatal(err)
		}
		res, err := pr.Prove(core.BestPathStrongScript)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "proofsteps")
}

// --- E4: count-to-infinity via model checking ---------------------------------

func BenchmarkE4CountToInfinity(b *testing.B) {
	topo := netgraph.Line(3)
	for i := 0; i < b.N; i++ {
		sys, err := linear.DistanceVector(linear.DVConfig{
			Topo: topo, Dest: "n2", MaxCost: 8, FailA: "n1", FailB: "n2",
		})
		if err != nil {
			b.Fatal(err)
		}
		res := modelcheck.CheckReachable(context.Background(), linear.TS{Sys: sys}, linear.RouteAtCost(7), modelcheck.Options{MaxStates: 1 << 16})
		if !res.Holds {
			b.Fatal("count-to-infinity not found")
		}
	}
}

// --- E5: component-based BGP model -------------------------------------------

func BenchmarkE5ComponentVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := component.NewBGPModel()
		th, err := m.Theory()
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: component → NDlog code generation ------------------------------------

func BenchmarkE6Codegen(b *testing.B) {
	m := component.NewBGPModel()
	for i := 0; i < b.N; i++ {
		prog, err := m.Program()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ndlog.Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: convergence, policy conflict vs clean, by network size ----------------

func bgpRing(n int) *netgraph.Topology {
	t := netgraph.Ring(n)
	return t
}

func runBGPOnce(b *testing.B, topo *netgraph.Topology, policy component.PolicySpec, maxTime float64) dist.Result {
	m := component.NewBGPModel()
	prog, err := m.Program()
	if err != nil {
		b.Fatal(err)
	}
	net, err := dist.NewNetwork(prog, topo, dist.Options{MaxTime: maxTime, LoadTopologyLinks: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, lp := range policy.LPFacts(topo) {
		net.Inject(0, lp[0].S, "lp", lp)
	}
	res, err := net.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkE7ConvergenceConflictVsClean(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("clean/n=%d", n), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				res := runBGPOnce(b, bgpRing(n), component.ShortestPathPolicy(), 100000)
				if !res.Converged {
					b.Fatal("clean policies did not converge")
				}
				t = res.Time
			}
			b.ReportMetric(t, "sim-time")
		})
	}
	b.Run("conflict/disagree", func(b *testing.B) {
		topo := &netgraph.Topology{Name: "triangle", Nodes: []string{"o", "a", "b"}}
		for _, pair := range [][2]string{{"o", "a"}, {"o", "b"}, {"a", "b"}} {
			topo.Links = append(topo.Links,
				netgraph.Link{Src: pair[0], Dst: pair[1], Cost: 1, Latency: 1},
				netgraph.Link{Src: pair[1], Dst: pair[0], Cost: 1, Latency: 1})
		}
		var flips int
		for i := 0; i < b.N; i++ {
			res := runBGPOnce(b, topo, component.DisagreePolicy("o", "a", "b"), 200)
			if res.Converged {
				b.Fatal("Disagree converged under symmetric timing")
			}
			flips = res.Stats.Flips
		}
		b.ReportMetric(float64(flips), "flips")
	})
}

// --- E8: metarouting obligation discharge -------------------------------------

func BenchmarkE8Discharge(b *testing.B) {
	algebras := metarouting.BaseAlgebras()
	b.ResetTimer()
	var checks int
	for i := 0; i < b.N; i++ {
		checks = 0
		for _, a := range algebras {
			rep := metarouting.Discharge(a)
			if !rep.AllDischarged() {
				b.Fatalf("%s failed %v", a.Name(), rep.Failed())
			}
			checks += rep.Checks
		}
	}
	b.ReportMetric(float64(checks), "axiom-instances")
}

// --- E9: lexProduct composition ------------------------------------------------

func BenchmarkE9LexProduct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := metarouting.BGPSystem()
		rep := metarouting.Discharge(sys)
		if rep.AllDischarged() {
			b.Fatal("BGPSystem unexpectedly monotone")
		}
		safe := metarouting.SafeBGPSystem()
		if c := metarouting.StrictMonotonicity(safe); c != nil {
			b.Fatalf("SafeBGPSystem not strictly monotone: %v", c)
		}
	}
}

// --- E10: soft-state rewrite ----------------------------------------------------

func BenchmarkE10SoftState(b *testing.B) {
	prog := ndlog.MustParse("soft", `
materialize(neighbor, 10, infinity, keys(1,2)).
materialize(link, infinity, infinity, keys(1,2)).
n2 twoHop(@N,M2) :- neighbor(@N,M), link(@M,M2).
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hard, err := translate.RewriteSoftState(prog)
		if err != nil {
			b.Fatal(err)
		}
		an, err := ndlog.Analyze(hard)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := translate.ToLogic(an, translate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: Disagree oscillation found by the model checker ----------------------

func BenchmarkE11ModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := modelcheck.FindLasso(context.Background(), bgp.System{SPP: bgp.Disagree(), Mode: bgp.Subsets}, nil, modelcheck.Options{})
		if !res.Holds {
			b.Fatal("no lasso in Disagree")
		}
	}
}

// --- Model checking: fingerprinted search core at 1 and 4 workers ----------

// BenchmarkModelCheck measures the search core on the k=3 Disagree chain
// under full subset activation (343 states, the heaviest E11 instance)
// at 1 and 4 workers.
func BenchmarkModelCheck(b *testing.B) {
	spp := bgp.DisagreeChain(3)
	sys := bgp.System{SPP: spp, Mode: bgp.Subsets}
	want, _ := modelcheck.CountReachable(context.Background(), sys, modelcheck.Options{})
	run := func(b *testing.B, count func() int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := count(); n != want {
				b.Fatalf("count %d, want %d", n, want)
			}
		}
	}
	b.Run("fingerprint/workers=1", func(b *testing.B) {
		run(b, func() int {
			n, _ := modelcheck.CountReachable(context.Background(), sys, modelcheck.Options{Workers: 1})
			return n
		})
	})
	b.Run("fingerprint/workers=4", func(b *testing.B) {
		run(b, func() int {
			n, _ := modelcheck.CountReachable(context.Background(), sys, modelcheck.Options{Workers: 4})
			return n
		})
	})
}

// --- E12: automation ratio -------------------------------------------------------

func BenchmarkE12Grind(b *testing.B) {
	p, err := core.PathVector()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		pr, err := prover.New(p.Theory, "bestPathCostStrong")
		if err != nil {
			b.Fatal(err)
		}
		if err := pr.Skosimp(); err != nil {
			b.Fatal(err)
		}
		if err := pr.Grind(); err != nil {
			b.Fatal(err)
		}
		if !pr.QED() {
			b.Fatal("grind failed")
		}
		ratio = pr.Summary().AutomationRatio()
	}
	b.ReportMetric(ratio, "automation")
}

// --- E13: declarative vs imperative --------------------------------------------

func BenchmarkE13NDlogVsImperative(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		spp := bgp.ShortestPathSPP(n)
		b.Run(fmt.Sprintf("imperative-spvp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := bgp.NewSPVP(spp, bgp.RoundRobin, 0)
				if ok, _ := v.Run(1 << 20); !ok {
					b.Fatal("spvp did not converge")
				}
			}
		})
		b.Run(fmt.Sprintf("declarative-ndlog/n=%d", n), func(b *testing.B) {
			prog := ndlog.MustParse("pv", core.PathVectorSrc)
			topo := netgraph.Ring(n)
			for i := 0; i < b.N; i++ {
				net, err := dist.NewNetwork(prog, topo, dist.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				res, err := net.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("ndlog did not converge")
				}
			}
		})
	}
}

// --- A1: semi-naive vs naive -----------------------------------------------------

func BenchmarkA1SeminaiveVsNaive(b *testing.B) {
	load := func(e *datalog.Engine, n int) {
		for i := 0; i+1 < n; i++ {
			a, c := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)
			_ = e.Insert("link", value.Tuple{value.Addr(a), value.Addr(c), value.Int(1)})
			_ = e.Insert("link", value.Tuple{value.Addr(c), value.Addr(a), value.Int(1)})
		}
	}
	for _, mode := range []struct {
		name string
		m    datalog.Mode
	}{{"seminaive", datalog.SemiNaive}, {"naive", datalog.Naive}} {
		b.Run(mode.name, func(b *testing.B) {
			var derivations int
			for i := 0; i < b.N; i++ {
				eng, err := datalog.New(ndlog.MustParse("pv", core.PathVectorSrc))
				if err != nil {
					b.Fatal(err)
				}
				eng.Mode = mode.m
				load(eng, 10)
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				derivations = eng.Stats.Derivations
			}
			b.ReportMetric(float64(derivations), "derivations")
		})
	}
}

// --- A2: grind automation vs the manual 7-step script ----------------------------

func BenchmarkA2GrindVsManual(b *testing.B) {
	p, err := core.PathVector()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("manual-7-steps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr, _ := prover.New(p.Theory, "bestPathStrong")
			if _, err := pr.Prove(core.BestPathStrongScript); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semi-automated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr, _ := prover.New(p.Theory, "bestPathStrong")
			if err := pr.RunScript(`(skosimp*) (expand "bestPath") (expand "bestPathCost") (grind)`); err != nil {
				b.Fatal(err)
			}
			if !pr.QED() {
				b.Fatal("not proved")
			}
		}
	})
}

// --- A3: exhaustive vs sampled obligation discharge ------------------------------

func BenchmarkA3ObligationModes(b *testing.B) {
	alg := metarouting.LexProduct(metarouting.AddA(8, 3), metarouting.BandwidthA(6))
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep := metarouting.Discharge(alg); !rep.AllDischarged() {
				b.Fatal(rep.Failed())
			}
		}
	})
	b.Run("sampled-2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep := metarouting.DischargeSampled(alg, 2000, uint64(i)); !rep.AllDischarged() {
				b.Fatal(rep.Failed())
			}
		}
	})
}

// --- A4: BFS reachability vs DFS lasso on oscillating systems --------------------

func BenchmarkA4BFSvsDFS(b *testing.B) {
	sys := bgp.System{SPP: bgp.DisagreeChain(2), Mode: bgp.Subsets}
	b.Run("bfs-count", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			states, _ = modelcheck.CountReachable(context.Background(), sys, modelcheck.Options{})
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("dfs-lasso", func(b *testing.B) {
		var visited int
		for i := 0; i < b.N; i++ {
			res := modelcheck.FindLasso(context.Background(), sys, nil, modelcheck.Options{})
			if !res.Holds {
				b.Fatal("no lasso")
			}
			visited = res.Stats.StatesVisited
		}
		b.ReportMetric(float64(visited), "states")
	})
}

// --- Observability overhead --------------------------------------------------

// BenchmarkObsOverhead pairs identical runs with observability disabled
// (nil collector/tracer — the hot loops pay only nil checks) and fully
// enabled (external collector, ring-buffered tracer). The disabled
// variant is the default configuration and must stay within noise of the
// pre-instrumentation baseline. Both enabled variants build their
// collector and sink once, outside the timed loop, so they measure
// instrumentation rather than sink allocation.
func BenchmarkObsOverhead(b *testing.B) {
	topo := netgraph.Ring(8)
	runNet := func(b *testing.B, col *obs.Collector, tr *obs.Tracer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog := ndlog.MustParse("pv", core.PathVectorSrc)
			net, err := dist.NewNetwork(prog, topo, dist.Options{
				MaxTime: 10000, LoadTopologyLinks: true, Obs: col, Trace: tr,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dist/disabled", func(b *testing.B) { runNet(b, nil, nil) })
	b.Run("dist/enabled", func(b *testing.B) {
		runNet(b, obs.NewCollector(), obs.NewTracer(obs.NewRingSink(1<<16)))
	})

	runEng := func(b *testing.B, col *obs.Collector, tr *obs.Tracer) {
		b.ReportAllocs()
		links := netgraph.Ring(8).LinkTuples()
		for i := 0; i < b.N; i++ {
			eng, err := datalog.New(ndlog.MustParse("pv", core.PathVectorSrc))
			if err != nil {
				b.Fatal(err)
			}
			eng.Attach(col, tr)
			for _, t := range links {
				if err := eng.Insert("link", t); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("engine/disabled", func(b *testing.B) { runEng(b, nil, nil) })
	b.Run("engine/enabled", func(b *testing.B) {
		runEng(b, obs.NewCollector(), obs.NewTracer(obs.NewRingSink(1<<16)))
	})
}

// BenchmarkProvOverhead pairs identical distributed runs with provenance
// recording disabled (nil recorder — the hot loops pay only nil checks)
// and enabled (interned-term derivation graph). The disabled variant is
// the default configuration; its contract is pinned by recorder/nil-calls,
// which must report 0 allocs/op.
func BenchmarkProvOverhead(b *testing.B) {
	topo := netgraph.Ring(8)
	runNet := func(b *testing.B, mk func() *prov.Recorder) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog := ndlog.MustParse("pv", core.PathVectorSrc)
			net, err := dist.NewNetwork(prog, topo, dist.Options{
				MaxTime: 10000, LoadTopologyLinks: true, Prov: mk(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dist/disabled", func(b *testing.B) { runNet(b, func() *prov.Recorder { return nil }) })
	b.Run("dist/enabled", func(b *testing.B) { runNet(b, prov.New) })

	// The zero-alloc contract of the disabled path: every recorder entry
	// point on the nil recorder is a no-op that allocates nothing.
	b.Run("recorder/nil-calls", func(b *testing.B) {
		b.ReportAllocs()
		var rec *prov.Recorder
		tup := value.Tuple{value.Addr("n0"), value.Addr("n1"), value.Int(1)}
		for i := 0; i < b.N; i++ {
			if rec.Enabled() {
				b.Fatal("nil recorder reports enabled")
			}
			rec.Tuple(0, "n0", "link", tup, 0)
			rec.Rule(0, "n0", "r1", nil)
			rec.Message(0, "n0", "n1", "path", 1, 1, 0)
			rec.Fault(0, "link_down", "n0", "n1", 0)
			rec.Retract(0, "n0", "link", tup, "test", 0)
			rec.Drop("n0", "link", tup)
			if rec.Current("n0", "link", tup) != 0 {
				b.Fatal("nil recorder resolved a tuple")
			}
		}
	})
}

// --- PR2: compiled join plans vs. the seed nested-loop joiner ----------------

// The seedJoin* helpers reimplement the growth seed's joiner verbatim: a
// map[string]value.V environment threaded through a recursive walk over
// the body literals in source order, with indexed lookups on the columns
// the environment happens to bind. BenchmarkJoinPlan measures it against
// the compiled plan executor on the same engine fixpoint, so the delta is
// purely the join machinery (selectivity-ordered atoms, integer slots,
// reusable frame, allocation-free index keys).

func seedLookup(eng *datalog.Engine, atom *ndlog.Atom, env map[string]value.V) []value.Tuple {
	rel := eng.Table(atom.Pred)
	if rel == nil {
		return nil
	}
	var cols []int
	var vals []value.V
	for i, arg := range atom.Args {
		switch x := arg.(type) {
		case ndlog.VarE:
			if v, bound := env[x.Name]; bound {
				cols = append(cols, i)
				vals = append(vals, v)
			}
		case ndlog.LitE:
			cols = append(cols, i)
			vals = append(vals, x.Val)
		default:
			if v, err := ndlog.EvalExpr(arg, env); err == nil {
				cols = append(cols, i)
				vals = append(vals, v)
			}
		}
	}
	return rel.Lookup(cols, vals)
}

func seedMatchAtom(atom *ndlog.Atom, t value.Tuple, env map[string]value.V) ([]string, bool, error) {
	var bound []string
	fail := func() ([]string, bool, error) {
		for _, name := range bound {
			delete(env, name)
		}
		return nil, false, nil
	}
	for i, arg := range atom.Args {
		switch x := arg.(type) {
		case ndlog.VarE:
			if v, ok := env[x.Name]; ok {
				if !v.Equal(t[i]) {
					return fail()
				}
			} else {
				env[x.Name] = t[i]
				bound = append(bound, x.Name)
			}
		case ndlog.LitE:
			if !x.Val.Equal(t[i]) {
				return fail()
			}
		default:
			v, err := ndlog.EvalExpr(arg, env)
			if err != nil {
				return nil, false, err
			}
			if !v.Equal(t[i]) {
				return fail()
			}
		}
	}
	return bound, true, nil
}

func seedJoinBody(eng *datalog.Engine, r *ndlog.Rule, emit func(map[string]value.V) error) error {
	body := r.Body
	env := map[string]value.V{}
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(body) {
			return emit(env)
		}
		l := body[i]
		switch {
		case l.Atom != nil && !l.Neg:
			for _, t := range seedLookup(eng, l.Atom, env) {
				bound, ok, err := seedMatchAtom(l.Atom, t, env)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if err := walk(i + 1); err != nil {
					return err
				}
				for _, name := range bound {
					delete(env, name)
				}
			}
			return nil
		case l.Atom != nil && l.Neg:
			found := false
			for _, t := range seedLookup(eng, l.Atom, env) {
				_, ok, err := seedMatchAtom(l.Atom, t, env)
				if err != nil {
					return err
				}
				if ok {
					found = true
					break
				}
			}
			if found {
				return nil
			}
			return walk(i + 1)
		case l.Assign:
			be := l.Expr.(ndlog.BinE)
			name := be.L.(ndlog.VarE).Name
			v, err := ndlog.EvalExpr(be.R, env)
			if err != nil {
				return err
			}
			if old, bound := env[name]; bound {
				if !old.Equal(v) {
					return nil
				}
				return walk(i + 1)
			}
			env[name] = v
			err = walk(i + 1)
			delete(env, name)
			return err
		default:
			v, err := ndlog.EvalExpr(l.Expr, env)
			if err != nil {
				return err
			}
			if !v.True() {
				return nil
			}
			return walk(i + 1)
		}
	}
	return walk(0)
}

func seedBuildHead(head ndlog.Atom, env map[string]value.V) (value.Tuple, error) {
	t := make(value.Tuple, len(head.Args))
	for i, arg := range head.Args {
		v, err := ndlog.EvalExpr(arg, env)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// benchJoinSetup builds a path-vector engine at fixpoint over topo and
// returns it together with its analysis and the recursive rule r2, the
// join the benchmark re-evaluates.
func benchJoinSetup(b *testing.B, topo *netgraph.Topology) (*datalog.Engine, *ndlog.Analysis, *ndlog.Rule) {
	b.Helper()
	an, err := ndlog.Analyze(ndlog.MustParse("pv", core.PathVectorSrc))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := datalog.NewFromAnalysis(an)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range topo.LinkTuples() {
		if err := eng.Insert("link", t); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	var r2 *ndlog.Rule
	for _, r := range an.Prog.Rules {
		if r.Label == "r2" {
			r2 = r
		}
	}
	if r2 == nil {
		b.Fatal("rule r2 not found")
	}
	return eng, an, r2
}

// BenchmarkJoinPlan re-evaluates the path-vector recursion r2 over a
// converged engine: the seed's map-environment nested-loop joiner versus
// the compiled plan executor, on ring and grid topologies. The probe
// sub-benchmark runs a call-free two-hop join to pin the executor's
// zero-allocations-per-operation inner loop (r2 itself allocates in
// f_concatPath per derived path, which is head work, not join work).
func BenchmarkJoinPlan(b *testing.B) {
	for _, tc := range []struct {
		name string
		topo *netgraph.Topology
	}{
		{"ring:8", netgraph.Ring(8)},
		{"grid:4x4", netgraph.Grid(4, 4)},
	} {
		eng, an, r2 := benchJoinSetup(b, tc.topo)
		b.Run("seed/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				err := seedJoinBody(eng, r2, func(env map[string]value.V) error {
					if _, err := seedBuildHead(r2.Head, env); err != nil {
						return err
					}
					n++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("seed joiner emitted nothing")
				}
			}
		})
		plan := an.Plans[r2].Full
		b.Run("planned/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			x := store.NewExec(plan)
			head := make(value.Tuple, len(plan.HeadExprs))
			n := 0
			emit := func([]value.V) error {
				if err := plan.BuildHead(x.Env(), head); err != nil {
					return err
				}
				n++
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n = 0
				if _, err := x.Run(eng, nil, nil, emit); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("planned joiner emitted nothing")
				}
			}
		})
	}

	eng, _, _ := benchJoinSetup(b, netgraph.Ring(8))
	probe := ndlog.MustParse("probe", `
materialize(link, infinity, infinity, keys(1,2)).
materialize(twoHop, infinity, infinity, keys(1,2)).
t1 twoHop(@S,D) :- link(@S,Z,C1), link(@Z,D,C2).
`)
	pan, err := ndlog.Analyze(probe)
	if err != nil {
		b.Fatal(err)
	}
	pplan := pan.Plans[probe.Rules[0]].Full
	b.Run("probe/ring:8", func(b *testing.B) {
		b.ReportAllocs()
		x := store.NewExec(pplan)
		n := 0
		emit := func([]value.V) error { n++; return nil }
		// One warm-up run builds the lazy hash index and sizes the
		// executor's buffers; the measured loop must not allocate.
		if _, err := x.Run(eng, nil, nil, emit); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = 0
			if _, err := x.Run(eng, nil, nil, emit); err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("probe join emitted nothing")
			}
		}
	})
}

// --- E15: the proof-obligation pipeline ----------------------------------------

// benchObligations builds the grind-heavy theorem workload: the path-vector
// proof corpus plus the component preservation theorems, three copies each,
// so the obligation cache has duplicates to amortize (as a real suite does
// when composed systems share factor obligations).
func benchObligations(b *testing.B) []verify.Obligation {
	b.Helper()
	pv, err := verify.PathVectorObligations()
	if err != nil {
		b.Fatal(err)
	}
	comp, err := verify.ComponentObligations()
	if err != nil {
		b.Fatal(err)
	}
	base := append(pv, comp...)
	var out []verify.Obligation
	for copyN := 0; copyN < 3; copyN++ {
		for _, ob := range base {
			ob.Name = fmt.Sprintf("%s#%d", ob.Name, copyN)
			out = append(out, ob)
		}
	}
	return out
}

// BenchmarkProveObligations measures the proof kernel without the
// obligation cache, then with the cache at 1, 2 and 4 workers, on the same
// obligation suite. A fresh pipeline per iteration keeps the cache
// honest: hits come only from duplicates within the suite.
func BenchmarkProveObligations(b *testing.B) {
	obls := benchObligations(b)
	run := func(b *testing.B, opts verify.Options) {
		for i := 0; i < b.N; i++ {
			rep := verify.NewPipeline(opts).Run(context.Background(), obls)
			if !rep.AllProved() {
				b.Fatalf("%d obligations failed", rep.Failed())
			}
		}
	}
	b.Run("nocache", func(b *testing.B) { run(b, verify.Options{Workers: 1}) })
	b.Run("workers_1", func(b *testing.B) { run(b, verify.Options{Workers: 1, Cache: true}) })
	b.Run("workers_2", func(b *testing.B) { run(b, verify.Options{Workers: 2, Cache: true}) })
	b.Run("workers_4", func(b *testing.B) { run(b, verify.Options{Workers: 4, Cache: true}) })
}

// --- PR10: deletion under churn in the distributed runtime -------------------

// benchDistVectorSrc mirrors internal/dist's scale-test protocol: a
// single-destination distance vector whose route-through-neighbor rule
// joins the node's own link tuple, so retraction cascades stay local to
// the failure frontier. Unlike the scale-test copy, s1 also joins a link
// tuple: the soft-state refresh driver re-injects only link facts, so
// rooting the derivation chain in link is what lets refresh waves
// sustain it in the SoftRecompute variant below (a no-op under hard
// state — every node in these topologies has at least one link).
const benchDistVectorSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(self, infinity, infinity, keys(1)).
materialize(nbrb, infinity, infinity, keys(1,2,3)).
materialize(c, infinity, infinity, keys(1,2,3)).
materialize(b, infinity, infinity, keys(1,2)).

a1 nbrb(@N,Z,D,C) :- link(@Z,N,LC), b(@Z,D,C).
s1 c(@N,N,0) :- link(@N,Z,LC), self(@N).
s2 c(@N,D,C) :- link(@N,Z,LC), nbrb(@N,Z,D,CB), C=LC+CB.
b1 b(@N,D,min<C>) :- c(@N,D,C).
`

// BenchmarkChurnISP10kDist measures one fail+reconverge+restore cycle of
// an edge link on a converged 10^4-node preferential-attachment (ISP)
// topology — the epoch-batched delivery and location-sharded indexes
// keep the per-churn cost proportional to the affected region, not the
// graph.
func BenchmarkChurnISP10kDist(b *testing.B) {
	topo := netgraph.PreferentialAttachment(10_000, 2, 7)
	prim := topo.Links[len(topo.Links)-4]
	net, err := dist.NewNetwork(ndlog.MustParse("dv", benchDistVectorSrc), topo, dist.Options{
		MaxTime:           100_000_000,
		LoadTopologyLinks: true,
		Seed:              1,
	})
	if err != nil {
		b.Fatal(err)
	}
	net.Inject(0, "n0", "self", value.Tuple{value.Addr("n0")})
	if _, err := net.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.FailLink(net.Now()+1, prim.Src, prim.Dst)
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		net.RestoreLink(net.Now()+1, prim.Src, prim.Dst, prim.Cost)
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnISP10kDistSoftRecompute is the ISP-scale counterpart of
// BenchmarkChurnRing16DistSoftRecompute: the same churn as
// BenchmarkChurnISP10kDist but under the pre-cascade deletion path
// (ScalarDelete + soft state + refresh). Only one node's route is stale
// after this failure, yet every refresh wave re-announces all ~4·10^4
// link tuples — recompute-by-refresh costs time proportional to the
// whole network, while the cascade's cost is proportional to the
// affected region. That gap, not the ring numbers, is the scaling
// argument for incremental deletion.
func BenchmarkChurnISP10kDistSoftRecompute(b *testing.B) {
	const (
		lifetime = 20.0
		interval = 8.0
		// The failed edge is the last node's primary attachment; only its
		// own route is stale, so the staircase is shallow.
		horizon = 4 * lifetime
	)
	topo := netgraph.PreferentialAttachment(10_000, 2, 7)
	prim := topo.Links[len(topo.Links)-4]
	soft := strings.ReplaceAll(benchDistVectorSrc, "infinity, infinity", "20, infinity")
	soft = strings.ReplaceAll(soft, "materialize(self, 20,", "materialize(self, infinity,")
	net, err := dist.NewNetwork(ndlog.MustParse("dv", soft), topo, dist.Options{
		MaxTime:           1_000_000_000_000,
		LoadTopologyLinks: true,
		Seed:              1,
		ScalarDelete:      true,
	})
	if err != nil {
		b.Fatal(err)
	}
	net.Inject(0, "n0", "self", value.Tuple{value.Addr("n0")})
	net.InjectRefresh(1, interval, 1e12)
	if _, err := net.RunUntil(3 * lifetime); err != nil {
		b.Fatal(err)
	}
	check := func(phase string) {
		want := net.Topology().ShortestFrom("n0")[prim.Src]
		if got := distBestTo(net, prim.Src, "n0"); got != want {
			b.Fatalf("%s: b(%s,n0) = %d, want %d", phase, prim.Src, got, want)
		}
	}
	check("initial convergence")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.FailLink(net.Now()+1, prim.Src, prim.Dst)
		if _, err := net.RunUntil(net.Now() + horizon); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		check("post-failure")
		net.RestoreLink(net.Now()+1, prim.Src, prim.Dst, prim.Cost)
		if _, err := net.RunUntil(net.Now() + 2*lifetime); err != nil {
			b.Fatal(err)
		}
		check("post-restore")
		b.StartTimer()
	}
}

// distBestTo reads b(node, dst) — the node's best cost to dst under
// benchDistVectorSrc — out of a dist network, -1 if absent.
func distBestTo(net *dist.Network, node, dst string) int64 {
	for _, tup := range net.Query(node, "b") {
		if tup[1].S == dst {
			return tup[2].I
		}
	}
	return -1
}

// BenchmarkChurnRing16DistIncremental measures the system-level deletion
// path on a ring:16 distance-vector network rooted at n0: the n0-n1 link
// fails, the DRed cascade retracts every route through it at the failure
// frontier (s2 joins the node's OWN link tuple, so the dying support is
// local), and the run quiesces with the correct detour routes. Hard
// state and no refresh driver — the cascade alone is what makes deletion
// correct, which is the point of the comparison with
// BenchmarkChurnRing16DistSoftRecompute below.
func BenchmarkChurnRing16DistIncremental(b *testing.B) {
	net, err := dist.NewNetwork(ndlog.MustParse("dv", benchDistVectorSrc), netgraph.Ring(16), dist.Options{
		MaxTime:           1_000_000_000,
		LoadTopologyLinks: true,
		Seed:              1,
	})
	if err != nil {
		b.Fatal(err)
	}
	net.Inject(0, "n0", "self", value.Tuple{value.Addr("n0")})
	if _, err := net.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.FailLink(net.Now()+1, "n0", "n1")
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := distBestTo(net, "n3", "n0"); got != 13 {
			b.Fatalf("post-failure b(n3,n0) = %d, want 13 (long way round)", got)
		}
		net.RestoreLink(net.Now()+1, "n0", "n1", 1)
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if got := distBestTo(net, "n3", "n0"); got != 3 {
			b.Fatalf("post-restore b(n3,n0) = %d, want 3", got)
		}
		b.StartTimer()
	}
}

// BenchmarkChurnRing16DistSoftRecompute is the same churn under the
// retained pre-cascade deletion path (Options.ScalarDelete): a link
// failure deletes only the link tuple, and stale downstream routes drain
// by soft-state expiry under the periodic refresh driver — the §4.2
// recompute discipline this PR's cascade replaces. Soft lifetimes and the
// refresh driver are not overhead added for the benchmark: they are the
// minimal configuration under which this deletion path reaches the
// correct routes at all. The timed region therefore runs the refresh
// staircase until the stale chain (up to 15 hops deep, one lifetime per
// hop) has fully expired and the detour routes are in place.
func BenchmarkChurnRing16DistSoftRecompute(b *testing.B) {
	const (
		lifetime = 20.0
		interval = 8.0
		// The ring:16 staircase (expiry floor collapsing hop by hop plus
		// the distance-vector count-up over the surviving long way) is
		// fully settled by +240 sim units empirically; 280 leaves slack.
		// The post-failure check below fails the benchmark outright if a
		// shorter drain ever stops sufficing.
		horizon = 280.0
	)
	// Soften everything except self, the root's injected base fact: the
	// refresh driver only re-injects link tuples, so a soft self would
	// expire and take the whole view with it.
	soft := strings.ReplaceAll(benchDistVectorSrc, "infinity, infinity", "20, infinity")
	soft = strings.ReplaceAll(soft, "materialize(self, 20,", "materialize(self, infinity,")
	net, err := dist.NewNetwork(ndlog.MustParse("dv", soft), netgraph.Ring(16), dist.Options{
		MaxTime:           1_000_000_000_000,
		LoadTopologyLinks: true,
		Seed:              1,
		ScalarDelete:      true,
	})
	if err != nil {
		b.Fatal(err)
	}
	net.Inject(0, "n0", "self", value.Tuple{value.Addr("n0")})
	// The refresh driver runs for the whole benchmark (soft state dies
	// without it); RunUntil samples the network mid-refresh.
	net.InjectRefresh(1, interval, 1e12)
	if _, err := net.RunUntil(3 * lifetime); err != nil {
		b.Fatal(err)
	}
	if got := distBestTo(net, "n3", "n0"); got != 3 {
		b.Fatalf("initial convergence: b(n3,n0) = %d, want 3", got)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := net.Now()
		net.FailLink(start+1, "n0", "n1")
		if _, err := net.RunUntil(start + horizon); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := distBestTo(net, "n3", "n0"); got != 13 {
			b.Fatalf("post-failure b(n3,n0) = %d, want 13 (stale state not drained)", got)
		}
		net.RestoreLink(net.Now()+1, "n0", "n1", 1)
		if _, err := net.RunUntil(net.Now() + 2*lifetime); err != nil {
			b.Fatal(err)
		}
		if got := distBestTo(net, "n3", "n0"); got != 3 {
			b.Fatalf("post-restore b(n3,n0) = %d, want 3", got)
		}
		b.StartTimer()
	}
}
