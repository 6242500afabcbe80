package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

const pathVectorSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
materialize(bestPathCost, infinity, infinity, keys(1,2)).
materialize(bestPath, infinity, infinity, keys(1,2)).

r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
   C=C1+C2, P=f_concatPath(S,P2),
   f_inPath(P2,S)=false.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
`

func TestLocalizeShape(t *testing.T) {
	prog := ndlog.MustParse("pv", pathVectorSrc)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Localize(an)
	if err != nil {
		t.Fatal(err)
	}
	// r2 splits into r2a (forward) and r2b (local join); the others are
	// untouched: 4 rules -> 5.
	if len(local.Rules) != 5 {
		t.Fatalf("localized rules = %d, want 5:\n%s", len(local.Rules), local.String())
	}
	fwd, ok := local.RuleByLabel("r2a")
	if !ok {
		t.Fatalf("missing forward rule r2a:\n%s", local.String())
	}
	if !strings.HasPrefix(fwd.Head.Pred, "fwd_") {
		t.Errorf("forward head = %s", fwd.Head.Pred)
	}
	// Forward rule body must be entirely at one location (S).
	lan, err := ndlog.Analyze(local)
	if err != nil {
		t.Fatalf("localized program fails analysis: %v", err)
	}
	for _, r := range local.Rules {
		if len(lan.LocVars[r]) > 1 {
			t.Errorf("rule %s still spans locations %v", r.Label, lan.LocVars[r])
		}
	}
}

func TestDistributedPathVectorLine(t *testing.T) {
	topo := netgraph.Line(4)
	prog := ndlog.MustParse("pv", pathVectorSrc)
	net, err := NewNetwork(prog, topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("line-4 path vector did not converge")
	}
	// Every node has a best path to every other node; n0 -> n3 costs 3.
	for _, bp := range net.Query("n0", "bestPath") {
		if bp[1].S == "n3" {
			if bp[3].I != 3 {
				t.Errorf("n0->n3 best cost = %d, want 3", bp[3].I)
			}
			want := value.List(value.Addr("n0"), value.Addr("n1"), value.Addr("n2"), value.Addr("n3"))
			if !bp[2].Equal(want) {
				t.Errorf("n0->n3 best path = %v, want %v", bp[2], want)
			}
		}
	}
	if got := len(net.Query("n0", "bestPath")); got != 3 {
		t.Errorf("n0 has %d best paths, want 3", got)
	}
	if res.Stats.MessagesSent == 0 {
		t.Error("no messages were exchanged")
	}
	// Tuples live where their location specifier says: paths at n2 all
	// start at n2.
	for _, p := range net.Query("n2", "path") {
		if p[0].S != "n2" {
			t.Errorf("tuple at n2 has location %s", p[0].S)
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	// The distributed execution computes the same best costs as Dijkstra
	// ground truth on a random connected topology.
	topo := netgraph.RandomConnected(8, 0.3, 4, 42)
	prog := ndlog.MustParse("pv", pathVectorSrc)
	net, err := NewNetwork(prog, topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	truth := topo.ShortestCosts()
	for _, src := range topo.Nodes {
		got := map[string]int64{}
		for _, bp := range net.Query(src, "bestPathCost") {
			got[bp[1].S] = bp[2].I
		}
		for dst, want := range truth[src] {
			if got[dst] != want {
				t.Errorf("%s->%s cost = %d, want %d", src, dst, got[dst], want)
			}
		}
		if len(got) != len(truth[src]) {
			t.Errorf("%s reaches %d nodes, want %d", src, len(got), len(truth[src]))
		}
	}
}

func TestLinkFailureReconvergence(t *testing.T) {
	// Ring: after a failure the protocol finds the long way around.
	topo := netgraph.Ring(4)
	prog := ndlog.MustParse("pv", pathVectorSrc)
	net, err := NewNetwork(prog, topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	// n0 -> n3 direct link (ring closes n3-n0): cost 1.
	costBefore := bestCost(net, "n0", "n3")
	if costBefore != 1 {
		t.Fatalf("pre-failure n0->n3 = %d, want 1", costBefore)
	}
	net.FailLink(net.Now()+1, "n0", "n3")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	// The DRed deletion cascade retracts every path supported by the dead
	// link and recomputes the min aggregate, so the stale direct route is
	// gone and the long way around (n0->n1->n2->n3, cost 3) is the new
	// minimum — no waiting for soft-state expiry.
	if costAfter := bestCost(net, "n0", "n3"); costAfter != 3 {
		t.Errorf("post-failure n0->n3 = %d, want 3 (cascade should purge the stale direct route)", costAfter)
	}
	if net.Stats().Retractions == 0 {
		t.Error("link failure caused no retractions; deletion cascade did not run")
	}
	foundLong := false
	for _, p := range net.Query("n0", "path") {
		if p[1].S == "n3" && p[3].I == 3 {
			foundLong = true
		}
	}
	if !foundLong {
		t.Error("alternative path n0->n1->n2->n3 not present")
	}
}

func TestSoftStateExpiry(t *testing.T) {
	src := `
materialize(heartbeat, 5, infinity, keys(1,2)).
materialize(alive, 5, infinity, keys(1,2)).
h1 alive(@N,M) :- heartbeat(@N,M).
`
	topo := netgraph.Line(2)
	net, err := NewNetwork(ndlog.MustParse("soft", src), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(1, "n0", "heartbeat", value.Tuple{value.Addr("n0"), value.Addr("n1")})
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	// After the run, both the heartbeat and the derived alive tuple have
	// expired (lifetime 5, no refresh).
	if got := len(net.Query("n0", "alive")); got != 0 {
		t.Errorf("alive tuples after expiry = %d, want 0", got)
	}
	if res.Stats.Expirations == 0 {
		t.Error("no expirations recorded")
	}
}

func TestSoftStateRefresh(t *testing.T) {
	src := `
materialize(heartbeat, 5, infinity, keys(1,2)).
`
	topo := netgraph.Line(1)
	net, err := NewNetwork(ndlog.MustParse("soft", src), topo, Options{MaxTime: 7, LoadTopologyLinks: false})
	if err != nil {
		t.Fatal(err)
	}
	hb := value.Tuple{value.Addr("n0"), value.Addr("x")}
	net.Inject(0, "n0", "heartbeat", hb)
	net.Inject(3, "n0", "heartbeat", hb) // refresh before expiry at t=5
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	// At MaxTime 7 the refresh (t=3) keeps the tuple alive until t=8.
	if got := len(net.Query("n0", "heartbeat")); got != 1 {
		t.Errorf("refreshed heartbeat expired early (tuples=%d)", got)
	}
}

func TestSoftStateRefreshedTupleStillExpires(t *testing.T) {
	// Regression: a refresh via identical re-insert is a storage no-op, so
	// no new expiry event is created at insert time; the skipped expiry
	// must reschedule itself or the tuple becomes immortal.
	src := `
materialize(heartbeat, 5, infinity, keys(1,2)).
`
	topo := netgraph.Line(1)
	net, err := NewNetwork(ndlog.MustParse("soft", src), topo, Options{MaxTime: 100, LoadTopologyLinks: false})
	if err != nil {
		t.Fatal(err)
	}
	hb := value.Tuple{value.Addr("n0"), value.Addr("x")}
	net.Inject(0, "n0", "heartbeat", hb)
	net.Inject(3, "n0", "heartbeat", hb) // refresh; expiry must move to t=8
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.Query("n0", "heartbeat")); got != 0 {
		t.Errorf("refreshed heartbeat never expired (tuples=%d)", got)
	}
	if res.Stats.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", res.Stats.Expirations)
	}
}

func TestMessageLossStillConverges(t *testing.T) {
	// With a deterministic event loop, losing some forwarded tuples leaves
	// a subset of routes; the run must still quiesce without error.
	topo := netgraph.Clique(4)
	prog := ndlog.MustParse("pv", pathVectorSrc)
	net, err := NewNetwork(prog, topo, Options{MaxTime: 10000, Seed: 7, LoadTopologyLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.3}}); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("lossy run did not quiesce")
	}
	if res.Stats.MessagesDropped == 0 {
		t.Error("no messages dropped at 30% loss")
	}
}

func TestConvergenceTimeGrowsWithDiameter(t *testing.T) {
	converge := func(n int) float64 {
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
		return res.Time
	}
	t4, t8 := converge(4), converge(8)
	if t8 <= t4 {
		t.Errorf("convergence time line8 (%v) not greater than line4 (%v)", t8, t4)
	}
}

func TestInjectionAfterRunResumes(t *testing.T) {
	topo := netgraph.Line(3)
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	before := len(net.QueryAll("path"))
	// A new link n2->n0 creates additional paths.
	net.Inject(net.Now()+1, "n2", "link", value.Tuple{value.Addr("n2"), value.Addr("n0"), value.Int(1)})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if after := len(net.QueryAll("path")); after <= before {
		t.Errorf("paths after new link = %d, want > %d", after, before)
	}
}

func TestQueryUnknownNodeOrPred(t *testing.T) {
	topo := netgraph.Line(2)
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Query("zzz", "path"); got != nil {
		t.Error("query at unknown node returned tuples")
	}
	if got := net.Query("n0", "zzz"); got != nil {
		t.Error("query of unknown predicate returned tuples")
	}
	if net.Node("n0") == nil {
		t.Error("Node accessor failed")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	run := func() string {
		topo := netgraph.Ring(4)
		net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net.Snapshot("bestPath")
	}
	if run() != run() {
		t.Error("two identical runs produced different snapshots")
	}
}

func TestStatsPopulated(t *testing.T) {
	topo := netgraph.Line(3)
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.MessagesSent == 0 || s.MessagesDelivered == 0 || s.Derivations == 0 || s.TupleUpdates == 0 {
		t.Errorf("stats not populated: %+v", s)
	}
	if s.MessagesDelivered > s.MessagesSent {
		t.Errorf("delivered %d > sent %d", s.MessagesDelivered, s.MessagesSent)
	}
}

func TestKeyReplacementCountsRouteChange(t *testing.T) {
	src := `
materialize(advert, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2)).
r1 route(@N,D,C) :- advert(@N,D,C).
`
	topo := netgraph.Line(1)
	net, err := NewNetwork(ndlog.MustParse("rc", src), topo, Options{MaxTime: 100, LoadTopologyLinks: false})
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(1, "n0", "advert", value.Tuple{value.Addr("n0"), value.Addr("d"), value.Int(5)})
	net.Inject(2, "n0", "advert", value.Tuple{value.Addr("n0"), value.Addr("d"), value.Int(3)})
	net.Inject(3, "n0", "advert", value.Tuple{value.Addr("n0"), value.Addr("d"), value.Int(5)})
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// advert itself is unkeyed (set semantics): three distinct tuples.
	// route is keyed on (N,D): 5 -> 3 -> 5 is two replacements and one
	// A->B->A flip.
	if res.Stats.RouteChanges < 2 {
		t.Errorf("route changes = %d, want >= 2", res.Stats.RouteChanges)
	}
	if res.Stats.Flips < 1 {
		t.Errorf("flips = %d, want >= 1", res.Stats.Flips)
	}
	routes := net.Query("n0", "route")
	if len(routes) != 1 {
		t.Fatalf("route table has %d entries, want 1 (keyed)", len(routes))
	}
	if routes[0][2].I != 5 {
		t.Errorf("final route cost = %d, want 5", routes[0][2].I)
	}
}

func TestGridConvergence(t *testing.T) {
	topo := netgraph.Grid(3, 3)
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("grid did not converge")
	}
	// Corner-to-corner best cost is the Manhattan distance: 4.
	if c := bestCost(net, "n0_0", "n2_2"); c != 4 {
		t.Errorf("corner-to-corner cost = %d, want 4", c)
	}
}

func bestCost(net *Network, src, dst string) int64 {
	for _, bp := range net.Query(src, "bestPathCost") {
		if bp[1].S == dst {
			return bp[2].I
		}
	}
	return -1
}

func TestLocalizeErrorPaths(t *testing.T) {
	// A rule whose link atom's location is a constant cannot be localized.
	prog := ndlog.MustParse("bad", `r1 p(@S) :- a(@S,V), b(@Z,V,S), q(@Z).`)
	an, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Localize(an); err != nil {
		// Either outcome is fine as long as it doesn't panic; this rule has
		// a link atom b(@Z,V,S) so localization should actually succeed.
		t.Logf("localize: %v", err)
	}
}

func TestManyNodesScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	// Sparse: path-vector materializes every simple path, which is
	// exponential on dense graphs.
	topo := netgraph.RandomConnected(16, 0.03, 3, 99)
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), topo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("16-node network did not converge")
	}
	fmt.Println() // keep fmt imported
}
