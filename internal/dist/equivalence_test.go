package dist

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datalog"
	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

// TestDistributedEquivalentToCentralizedQuick is the cross-engine oracle:
// on random sparse topologies, the distributed pipelined execution and the
// centralized stratified engine must compute identical path and
// bestPathCost relations (the distribution of a Datalog program preserves
// its semantics — the property-preservation claim behind arc 7).
func TestDistributedEquivalentToCentralizedQuick(t *testing.T) {
	f := func(seed uint8) bool {
		topo := netgraph.RandomConnected(6, 0.1, 3, uint64(seed)+1)

		// Centralized.
		eng, err := datalog.New(ndlog.MustParse("pv", pathVectorSrc))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range topo.LinkTuples() {
			if err := eng.Insert("link", l); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}

		// Distributed.
		net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			return false
		}

		for _, pred := range []string{"path", "bestPathCost"} {
			want := map[string]bool{}
			for _, tup := range eng.Query(pred) {
				want[tup.Key()] = true
			}
			got := map[string]bool{}
			for _, tup := range net.QueryAll(pred) {
				got[tup.Key()] = true
			}
			if len(want) != len(got) {
				t.Logf("seed %d: %s sizes differ: centralized %d, distributed %d", seed, pred, len(want), len(got))
				return false
			}
			for k := range want {
				if !got[k] {
					t.Logf("seed %d: %s missing %s", seed, pred, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// ruleBlock is one feature of the random-program generator: its
// materialize declarations, its rules, the derived predicates it defines,
// and the blocks it depends on.
type ruleBlock struct {
	name  string
	decls string
	rules string
	preds []string
	needs []string
}

// genBlocks is the generator's rule pool. Every block is a single-node
// program fragment over the base predicates e/3, q/2, and g/3 (all facts
// live at @n0, so localization is the identity and the distributed run
// exercises the pipelined evaluator without the network). Together the
// pool covers joins with filters and assignments, safe negation, monotone
// recursion, and each aggregate kind.
var genBlocks = []ruleBlock{
	{
		name:  "join",
		decls: "materialize(j, infinity, infinity, keys(1,2,3,4)).\n",
		rules: "j1 j(@A,X,Y,S) :- e(@A,X,C1), e(@A,Y,C2), C1 < C2, S=C1+C2.\n",
		preds: []string{"j"},
	},
	{
		name:  "neg",
		decls: "materialize(nq, infinity, infinity, keys(1,2)).\n",
		rules: "n1 nq(@A,X) :- e(@A,X,C), !q(@A,X).\n",
		preds: []string{"nq"},
	},
	{
		name:  "reach",
		decls: "materialize(reach, infinity, infinity, keys(1,2,3)).\n",
		rules: "t1 reach(@A,X,Y) :- g(@A,X,Y).\nt2 reach(@A,X,Z) :- reach(@A,X,Y), g(@A,Y,Z).\n",
		preds: []string{"reach"},
	},
	{
		name:  "min",
		decls: "materialize(emin, infinity, infinity, keys(1,2)).\n",
		rules: "m1 emin(@A,X,min<C>) :- e(@A,X,C).\n",
		preds: []string{"emin"},
	},
	{
		name:  "max",
		decls: "materialize(emax, infinity, infinity, keys(1,2)).\n",
		rules: "m2 emax(@A,X,max<C>) :- e(@A,X,C).\n",
		preds: []string{"emax"},
	},
	{
		name:  "count",
		decls: "materialize(ecnt, infinity, infinity, keys(1,2)).\n",
		rules: "c1 ecnt(@A,X,count<*>) :- e(@A,X,C).\n",
		preds: []string{"ecnt"},
	},
	{
		name:  "sum",
		decls: "materialize(rsum, infinity, infinity, keys(1,2)).\n",
		rules: "s1 rsum(@A,X,sum<Y>) :- reach(@A,X,Y).\n",
		preds: []string{"rsum"},
		needs: []string{"reach"},
	},
	// Delete-heavy stratified fragments. The pipelined runtime applies a
	// delete-rule firing immediately after the insert firing from the same
	// delta (triggers run in declaration order), so these stay equivalent
	// to the engine — which runs deletes after the stratum's fixpoint —
	// as long as every delta that can insert a tuple also fires the delete
	// rule that retracts it. Both blocks keep that superset-body shape and
	// mix negation into the delete body.
	{
		name:  "dels",
		decls: "materialize(dr, infinity, infinity, keys(1,2)).\n",
		rules: "u1 dr(@A,X) :- e(@A,X,C).\n" +
			"ud delete dr(@A,X) :- q(@A,X), e(@A,X,C), !g(@A,X,X).\n",
		preds: []string{"dr"},
	},
	{
		name:  "delneg",
		decls: "materialize(keep, infinity, infinity, keys(1,2)).\n",
		rules: "k1 keep(@A,X) :- g(@A,X,Y).\n" +
			"kd delete keep(@A,X) :- g(@A,X,Y), !q(@A,X).\n",
		preds: []string{"keep"},
	},
}

// genProgram builds a random single-node program: a subset of the rule
// pool (all of it for seed 0) plus random base facts. It returns the
// program source and the derived predicates to compare.
func genProgram(seed uint64) (string, []string) {
	state := seed*2862933555777941757 + 3037000493
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}

	include := map[string]bool{}
	for _, bl := range genBlocks {
		if seed == 0 || next(2) == 0 {
			include[bl.name] = true
		}
	}
	if len(include) == 0 {
		include[genBlocks[int(next(uint64(len(genBlocks))))].name] = true
	}
	for _, bl := range genBlocks {
		if include[bl.name] {
			for _, dep := range bl.needs {
				include[dep] = true
			}
		}
	}

	var b strings.Builder
	b.WriteString("materialize(e, infinity, infinity, keys(1,2,3)).\n")
	b.WriteString("materialize(q, infinity, infinity, keys(1,2)).\n")
	b.WriteString("materialize(g, infinity, infinity, keys(1,2,3)).\n")
	var preds []string
	for _, bl := range genBlocks {
		if !include[bl.name] {
			continue
		}
		b.WriteString(bl.decls)
		b.WriteString(bl.rules)
		preds = append(preds, bl.preds...)
	}
	// Base facts. e: weighted items; q: a random subset of item ids;
	// g: a small random graph over ints (recursion input).
	for i, n := 0, 3+int(next(6)); i < n; i++ {
		fmt.Fprintf(&b, "e(@n0,%d,%d).\n", next(4), 1+next(9))
	}
	for x := uint64(0); x < 4; x++ {
		if next(2) == 0 {
			fmt.Fprintf(&b, "q(@n0,%d).\n", x)
		}
	}
	for i, n := 0, 3+int(next(5)); i < n; i++ {
		fmt.Fprintf(&b, "g(@n0,%d,%d).\n", next(5), next(5))
	}
	// The program must seed q and g even when unreferenced facts were not
	// generated; empty tables are fine, unknown predicates are not.
	return b.String(), preds
}

// TestSumOverNonIntegerFailsBothEngines: sum<> over non-integer values is
// an error in the centralized engine, and the distributed runtime must
// refuse it the same way instead of converging on a meaningless total.
func TestSumOverNonIntegerFailsBothEngines(t *testing.T) {
	const src = `materialize(part, infinity, infinity, keys(1,2)).
materialize(total, infinity, infinity, keys(1)).
r1 total(@S,sum<C>) :- part(@S,C).
part(@n0,"x").
part(@n0,"y").
`
	eng, err := datalog.New(ndlog.MustParse("sum", src))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err == nil || !strings.Contains(err.Error(), "sum over non-integer") {
		t.Fatalf("engine: err = %v, want sum over non-integer", err)
	}
	net, err := NewNetwork(ndlog.MustParse("sum", src), netgraph.Line(1), Options{MaxTime: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err == nil || !strings.Contains(err.Error(), "sum over non-integer") {
		t.Fatalf("dist: err = %v, total = %v, want sum over non-integer", err, net.Query("n0", "total"))
	}
}

// TestEngineDistAgreeOnRandomPrograms is the randomized cross-engine
// property test: for generated programs covering joins, negation,
// recursion, and every aggregate, the centralized stratified engine and a
// single-node distributed (pipelined) run must reach the same fixpoint.
// Negated predicates are base tables only and all facts arrive in the
// t=0 batch, so the pipelined evaluation never derives through a negation
// that later becomes false — the generated programs stay within the
// fragment where both semantics provably coincide.
func TestEngineDistAgreeOnRandomPrograms(t *testing.T) {
	topo := netgraph.Line(1)
	for seed := uint64(0); seed < 25; seed++ {
		src, preds := genProgram(seed)
		prog := "gen" + fmt.Sprint(seed)

		eng, err := datalog.New(ndlog.MustParse(prog, src))
		if err != nil {
			t.Fatalf("seed %d: engine: %v\n%s", seed, err, src)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: engine run: %v\n%s", seed, err, src)
		}

		net, err := NewNetwork(ndlog.MustParse(prog, src), topo, Options{
			MaxTime: 10_000, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: dist: %v\n%s", seed, err, src)
		}
		res, err := net.Run()
		if err != nil {
			t.Fatalf("seed %d: dist run: %v\n%s", seed, err, src)
		}
		if !res.Converged {
			t.Fatalf("seed %d: dist did not converge\n%s", seed, src)
		}

		for _, pred := range preds {
			want := eng.Query(pred)
			got := net.Query("n0", pred)
			if len(want) != len(got) {
				t.Errorf("seed %d: %s sizes differ: engine %d, dist %d\nengine: %v\ndist:   %v\nprogram:\n%s",
					seed, pred, len(want), len(got), want, got, src)
				continue
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Errorf("seed %d: %s[%d]: engine %v, dist %v\nprogram:\n%s",
						seed, pred, i, want[i], got[i], src)
					break
				}
			}
		}
	}
}

// TestGeneratedProgramsSurviveCrashRestart extends the random-program
// oracle to the self-healing layer: each generated program runs once
// fault-free (the oracle) and once with the node crashing mid-run and
// restoring from a checkpoint. Checkpoints snapshot only base
// predicates; every derived relation must be rebuilt by re-evaluation
// from the restored facts, so agreement here pins down both the
// checkpoint contents and the restore-as-batch semantics (deletes and
// negation re-fire exactly as they did in the original t=0 batch).
func TestGeneratedProgramsSurviveCrashRestart(t *testing.T) {
	topo := netgraph.Line(1)
	for seed := uint64(0); seed < 25; seed++ {
		src, preds := genProgram(seed)
		prog := "gen" + fmt.Sprint(seed)

		eng, err := datalog.New(ndlog.MustParse(prog, src))
		if err != nil {
			t.Fatalf("seed %d: engine: %v\n%s", seed, err, src)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: engine run: %v\n%s", seed, err, src)
		}

		net, err := NewNetwork(ndlog.MustParse(prog, src), topo, Options{
			MaxTime: 10_000, Seed: seed, CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: dist: %v\n%s", seed, err, src)
		}
		if err := net.ApplyPlan(&faults.Plan{
			Nodes: []faults.NodeFault{{Node: "n0", Crash: 5, Restart: 9}},
		}); err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		res, err := net.Run()
		if err != nil {
			t.Fatalf("seed %d: dist run: %v\n%s", seed, err, src)
		}
		if !res.Converged {
			t.Fatalf("seed %d: dist did not converge\n%s", seed, src)
		}
		if res.Stats.Restores != 1 {
			t.Fatalf("seed %d: restores = %d, want 1", seed, res.Stats.Restores)
		}

		for _, pred := range preds {
			want := eng.Query(pred)
			got := net.Query("n0", pred)
			if len(want) != len(got) {
				t.Errorf("seed %d: %s sizes differ after crash/restore: engine %d, dist %d\nengine: %v\ndist:   %v\nprogram:\n%s",
					seed, pred, len(want), len(got), want, got, src)
				continue
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Errorf("seed %d: %s[%d]: engine %v, dist %v\nprogram:\n%s",
						seed, pred, i, want[i], got[i], src)
					break
				}
			}
		}
	}
}

// TestReliableCrashRestartMatchesFaultFreeOracleQuick is the equivalence
// oracle for the full self-healing stack: on random connected topologies
// under randomly generated fault plans (noisy channels, flaps, a healed
// partition, crash/restart cycles — every fault guaranteed to heal), the
// path-vector protocol with reliable channels, checkpoints, and
// anti-entropy must converge to the same bestPathCost relation as a
// fault-free run on the same topology. Reliable delivery caps what loss
// can destroy, checkpoints restore base facts, and anti-entropy repairs
// restarted nodes and healed partitions, so no refresh waves are needed.
func TestReliableCrashRestartMatchesFaultFreeOracleQuick(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		topo := netgraph.RandomConnected(5, 0.1, 3, seed+1)

		// Fault-free oracle on a pristine copy of the topology.
		oracle, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), copyTopo(topo), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Run(); err != nil {
			t.Fatal(err)
		}

		gen := faults.DefaultGenOptions()
		gen.Horizon = 60
		gen.RestartProb = 1 // every crash restarts: final topology == original
		gen.HealProb = 1    // every partition heals
		gen.MaxLoss = 0.2
		plan := faults.Generate(seed, topo, gen)

		net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, Options{
			MaxTime:           20_000,
			LoadTopologyLinks: true,
			Seed:              seed,
			Reliable:          true,
			CheckpointEvery:   10,
			AntiEntropy:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.ApplyPlan(plan); err != nil {
			t.Fatal(err)
		}
		res, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: faulted run did not converge", seed)
		}

		for _, node := range topo.Nodes {
			want := map[string]bool{}
			for _, tup := range oracle.Query(node, "bestPathCost") {
				want[tup.Key()] = true
			}
			got := map[string]bool{}
			for _, tup := range net.Query(node, "bestPathCost") {
				got[tup.Key()] = true
			}
			if len(want) != len(got) {
				t.Errorf("seed %d: %s bestPathCost sizes differ: oracle %d, healed %d\noracle: %v\nhealed: %v",
					seed, node, len(want), len(got), oracle.Query(node, "bestPathCost"), net.Query(node, "bestPathCost"))
				continue
			}
			for k := range want {
				if !got[k] {
					t.Errorf("seed %d: %s bestPathCost missing %s", seed, node, k)
				}
			}
		}
	}
}

// TestLossRecoveryByRefresh shows the soft-state design pattern of §4.2:
// lossy links drop advertisements, but periodically refreshed soft state
// re-announces them, so the protocol heals.
func TestLossRecoveryByRefresh(t *testing.T) {
	// Periodic announcements carry an event sequence number (as NDlog
	// periodics do): each firing is a fresh tuple, so the rule re-derives
	// and re-sends even though the previous announcement is still alive.
	src := `
materialize(announce, 20, infinity, keys(1,2,3)).
materialize(heard, infinity, infinity, keys(1,2)).
a1 heard(@M,N) :- announce(@N,M,S), link(@N,M,C).
`
	topo := netgraph.Line(2)
	net, err := NewNetwork(ndlog.MustParse("soft", src), topo, Options{
		MaxTime: 500, Seed: 3, LoadTopologyLinks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.5}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		net.Inject(float64(i*10), "n0", "announce",
			value.Tuple{value.Addr("n0"), value.Addr("n1"), value.Int(int64(i))})
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesDropped == 0 {
		t.Skip("no losses at this seed; test vacuous")
	}
	if got := len(net.Query("n1", "heard")); got != 1 {
		t.Errorf("refresh did not heal losses: heard=%d", got)
	}
}

func TestRestoreLinkResumesRouting(t *testing.T) {
	topo := netgraph.Line(3)
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	// Fail then restore n1-n2 with a different cost; new paths appear.
	net.FailLink(net.Now()+1, "n1", "n2")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	net.RestoreLink(net.Now()+1, "n1", "n2", 5)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range net.Query("n0", "path") {
		if p[1].S == "n2" && p[3].I == 6 { // 1 + restored 5
			found = true
		}
	}
	if !found {
		t.Errorf("no path over the restored link: %v", net.Query("n0", "path"))
	}
}

func TestBenchSizedLineScales(t *testing.T) {
	// Guard against superlinear blowup in the common bench configuration.
	for _, n := range []int{8, 16} {
		topo := netgraph.Line(n)
		net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("line-%d did not converge", n)
		}
		// A line has n*(n-1) ordered pairs, one best path each.
		want := n * (n - 1)
		if got := len(net.QueryAll("bestPath")); got != want {
			t.Errorf("line-%d bestPath count = %d, want %d", n, got, want)
		}
	}
}
