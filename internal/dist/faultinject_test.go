package dist

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/value"
)

const pingSrc = `
p1 recv(@D,S,V) :- ping(@S,D,V), link(@S,D,C).
`

// TestInFlightMessageDroppedByLinkFailure pins the in-flight semantics of
// FailLink: a message already on the wire when its link dies never
// arrives (it is dropped and traced at its would-be arrival time). The
// pre-fix behavior delivered it as if the failure had not happened.
func TestInFlightMessageDroppedByLinkFailure(t *testing.T) {
	run := func(failAt float64) (Stats, []value.Tuple, []obs.Event) {
		t.Helper()
		ring := obs.NewRingSink(1024)
		net, err := NewNetwork(ndlog.MustParse("ping", pingSrc), netgraph.Line(2), Options{
			MaxTime:           100,
			LoadTopologyLinks: true,
			Trace:             obs.NewTracer(ring),
		})
		if err != nil {
			t.Fatal(err)
		}
		// The ping fires at t=5; the recv message is in flight n0→n1
		// during (5, 6).
		net.Inject(5, "n0", "ping", value.Tuple{value.Addr("n0"), value.Addr("n1"), value.Int(1)})
		if failAt > 0 {
			net.FailLink(failAt, "n0", "n1")
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net.Stats(), net.Query("n1", "recv"), ring.Events()
	}

	// Control: without the failure the message delivers.
	s, recv, _ := run(0)
	if len(recv) != 1 || s.MessagesDelivered != 1 {
		t.Fatalf("control run: recv=%v stats=%+v, want one delivery", recv, s)
	}

	// The link dies at t=5.5 with the message mid-flight: dropped.
	s, recv, events := run(5.5)
	if len(recv) != 0 {
		t.Errorf("in-flight message delivered across a dead link: %v", recv)
	}
	if s.MessagesSent != 1 || s.MessagesDropped != 1 || s.MessagesDelivered != 0 {
		t.Errorf("stats = %+v, want sent=1 dropped=1 delivered=0", s)
	}
	sawDrop := false
	for _, e := range events {
		if e.Kind == obs.EvMessageDropped && e.T == 6 && e.From == "n0" && e.To == "n1" {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Error("no message_dropped trace event at the would-be arrival time")
	}
}

// TestCrashWipesStateAndCancelsExpiries pins true-crash semantics: the
// node's tables are gone, and soft-state expiries scheduled by the old
// incarnation never fire.
func TestCrashWipesStateAndCancelsExpiries(t *testing.T) {
	src := `
materialize(hb, 12, infinity, keys(1,2,3)).
h1 up(@M,N) :- hb(@N,M,S), link(@N,M,C).
`
	net, err := NewNetwork(ndlog.MustParse("fd", src), netgraph.Line(2), Options{
		MaxTime:           100,
		LoadTopologyLinks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(1, "n0", "hb", value.Tuple{value.Addr("n0"), value.Addr("n1"), value.Int(0)})
	net.CrashNode(5, "n0") // before the hb expiry at t=13
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !net.NodeDown("n0") {
		t.Error("n0 not marked down")
	}
	if got := net.Query("n0", "hb"); len(got) != 0 {
		t.Errorf("crashed node still holds state: %v", got)
	}
	if got := net.Query("n0", "link"); len(got) != 0 {
		t.Errorf("crashed node still holds link tuples: %v", got)
	}
	// The neighbor's view of the link is cut too.
	if got := net.Query("n1", "link"); len(got) != 0 {
		t.Errorf("neighbor still sees a link to the crashed node: %v", got)
	}
	if s := net.Stats(); s.Expirations != 0 {
		t.Errorf("expirations = %d, want 0 (crash cancels pending expiries)", s.Expirations)
	}
	if s := net.Stats(); s.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", s.Crashes)
	}
}

// TestCrashRestartRecoversViaRefresh: a crashed-and-restarted node
// rejoins empty and relearns the full routing state from the soft-state
// refresh waves — the paper's soft-state recovery argument, end to end.
func TestCrashRestartRecoversViaRefresh(t *testing.T) {
	plan := &faults.Plan{Nodes: []faults.NodeFault{{Node: "n1", Crash: 20, Restart: 40}}}
	rep, err := RunChaos(context.Background(), pathVectorSrc, netgraph.Ring(4), plan, ChaosOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("crash/restart run violated invariants:\n%v", rep.Violations)
	}
	if rep.Stats.Crashes != 1 || rep.Stats.Restarts != 1 {
		t.Errorf("stats = %+v, want 1 crash + 1 restart", rep.Stats)
	}
	if len(rep.Live) != 4 {
		t.Errorf("live = %v, want all 4 back", rep.Live)
	}
}

// TestDuplicateDeliveryIsHarmless pins the at-least-once argument: NDlog
// set semantics make duplicate deliveries no-ops, so a run with heavy
// duplication reaches the identical fixpoint (modulo message stats).
func TestDuplicateDeliveryIsHarmless(t *testing.T) {
	run := func(dup float64) (*Network, Stats) {
		t.Helper()
		net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), netgraph.Ring(5), Options{
			MaxTime:           10_000,
			LoadTopologyLinks: true,
			Seed:              9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Dup: dup}}); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net, net.Stats()
	}
	clean, cs := run(0)
	dup, ds := run(0.5)
	if ds.MessagesDuplicated == 0 {
		t.Fatal("dup 0.5 duplicated nothing")
	}
	if ds.MessagesSent <= cs.MessagesSent {
		t.Errorf("duplication did not increase traffic: %d vs %d", ds.MessagesSent, cs.MessagesSent)
	}
	for _, pred := range []string{"bestPathCost", "bestPath", "path"} {
		if c, d := clean.Snapshot(pred), dup.Snapshot(pred); c != d {
			t.Errorf("%s fixpoint differs under duplication:\n%s\nvs\n%s", pred, c, d)
		}
	}
}

// TestPartitionHealReconverges: a partition splits the network, a heal
// rejoins it, and the protocol reconverges to the full shortest paths —
// on a ring and on a grid.
func TestPartitionHealReconverges(t *testing.T) {
	cases := []struct {
		name  string
		topo  func() *netgraph.Topology
		group []string
	}{
		{"ring", func() *netgraph.Topology { return netgraph.Ring(6) }, []string{"n0", "n1", "n2"}},
		{"grid", func() *netgraph.Topology { return netgraph.Grid(3, 3) }, []string{"n0_0", "n0_1", "n0_2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &faults.Plan{Partitions: []faults.Partition{{At: 10, Heal: 45, Group: tc.group}}}
			rep, err := RunChaos(context.Background(), pathVectorSrc, tc.topo(), plan, ChaosOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("partition→heal on %s violated invariants:\n%v", tc.name, rep.Violations)
			}
		})
	}
}

// TestPermanentPartitionConvergesPerSide: a partition that never heals
// leaves two components, each of which must converge to its own shortest
// paths with no routes across the cut.
func TestPermanentPartitionConvergesPerSide(t *testing.T) {
	plan := &faults.Plan{Partitions: []faults.Partition{{At: 10, Group: []string{"n0", "n1", "n2"}}}}
	rep, err := RunChaos(context.Background(), pathVectorSrc, netgraph.Ring(6), plan, ChaosOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("permanent partition violated invariants:\n%v", rep.Violations)
	}
}

// TestConservationWithDuplicationAndPending: on a truncated run with
// duplication and loss active, sent == delivered + dropped + in-flight.
func TestConservationWithDuplicationAndPending(t *testing.T) {
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), netgraph.Ring(8), Options{
		MaxTime:           10_000,
		LoadTopologyLinks: true,
		Seed:              21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.1, Dup: 0.3, Jitter: 1.5, Reorder: 0.4}}); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-flood so messages are genuinely pending.
	if _, err := net.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	pending := net.PendingMessages()
	if pending == 0 {
		t.Error("expected in-flight messages on a truncated flood")
	}
	if s.MessagesSent != s.MessagesDelivered+s.MessagesDropped+pending {
		t.Errorf("conservation violated: sent %d != delivered %d + dropped %d + pending %d",
			s.MessagesSent, s.MessagesDelivered, s.MessagesDropped, pending)
	}
	// Run to completion: pending drains to zero and conservation holds
	// exactly.
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	s = net.Stats()
	if p := net.PendingMessages(); p != 0 {
		t.Errorf("pending = %d after full run", p)
	}
	if s.MessagesSent != s.MessagesDelivered+s.MessagesDropped {
		t.Errorf("conservation violated at quiescence: %+v", s)
	}
	if s.MessagesDuplicated == 0 {
		t.Error("expected duplications with dup 0.3")
	}
}
