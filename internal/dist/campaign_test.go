package dist

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netgraph"
	"repro/internal/obs"
)

// TestChaosCleanRun: no faults at all — the softened, refresh-driven
// path-vector program must converge to the exact shortest-path truth.
func TestChaosCleanRun(t *testing.T) {
	rep, err := RunChaos(context.Background(), pathVectorSrc, netgraph.Ring(5), &faults.Plan{}, ChaosOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean run violated invariants:\n%v", rep.Violations)
	}
	if len(rep.Live) != 5 {
		t.Errorf("live = %v, want all 5", rep.Live)
	}
}

// uncheckablePrograms are NDlog programs the chaos route checks cannot
// read: reach derives neither bestPathCost nor bestPath, and arity2
// derives bestPathCost with two columns where the checks read three.
var uncheckablePrograms = []struct{ name, src string }{
	{"reach", `
materialize(link, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
r1 reach(@S,D) :- link(@S,D,C).
r2 reach(@S,D) :- link(@S,Z,C), reach(@Z,D).
`},
	{"arity2", `
materialize(link, infinity, infinity, keys(1,2)).
materialize(bestPathCost, infinity, infinity, keys(1,2)).
materialize(bestPath, infinity, infinity, keys(1,2)).
b1 bestPathCost(@S,D) :- link(@S,D,C).
b2 bestPath(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
`},
}

// TestRunChaosRefusesUncheckablePrograms: RunChaos must refuse, before
// simulating, a program that does not derive bestPathCost/3 and
// bestPath/4. Unrefused, the reachability program fails every route
// check (30 safety violations on this plan), and the arity-2 program
// panics in the recovery sampler after the plan's crash and restart.
func TestRunChaosRefusesUncheckablePrograms(t *testing.T) {
	for _, p := range uncheckablePrograms {
		t.Run(p.name, func(t *testing.T) {
			topo := netgraph.Ring(6)
			plan := faults.Generate(7, topo, faults.DefaultGenOptions())
			rep, err := RunChaos(context.Background(), p.src, topo, plan, ChaosOptions{Seed: 7})
			if err == nil {
				t.Fatalf("program accepted; report has %d violations", len(rep.Violations))
			}
			if !strings.Contains(err.Error(), "bestPathCost/3") {
				t.Errorf("error %q does not name bestPathCost/3", err)
			}
		})
	}
}

// TestChaosCampaignHoldsInvariants is the core acceptance check: random
// fault plans (flaps, crash/restart, partitions with heal, channel
// noise) across seeds, every run converging back to the shortest paths
// of whatever topology survives.
func TestChaosCampaignHoldsInvariants(t *testing.T) {
	c := &Campaign{
		Source:   pathVectorSrc,
		Topo:     func() *netgraph.Topology { return netgraph.Ring(6) },
		Runs:     8,
		BaseSeed: 42,
		Gen:      faults.DefaultGenOptions(),
		Opts:     DefaultChaosOptions(),
	}
	reports, err := c.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.Failed() {
			t.Errorf("run %d (seed %d) failed:\n  plan: %s\n  violations: %v",
				i, rep.Seed, rep.Plan.Summary(), rep.Violations)
		}
	}
}

// TestChaosHardModeViolatesAndReplays: hard state cannot retract routes
// through dead links, so a plan that permanently kills a link must
// produce a safety violation — and replaying the same seed must
// reproduce the identical report (the one-command-replay contract).
func TestChaosHardModeViolatesAndReplays(t *testing.T) {
	plan := &faults.Plan{
		Links: []faults.LinkFault{{A: "n0", B: "n1", Flaps: []faults.Flap{{Down: 10}}}},
	}
	o := DefaultChaosOptions()
	o.Seed = 7
	o.Hard = true
	run := func() *ChaosReport {
		rep, err := RunChaos(context.Background(), pathVectorSrc, netgraph.Ring(5), plan, o)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if !r1.Failed() {
		t.Fatal("hard-state run with a permanent link failure reported no violation")
	}
	if !reflect.DeepEqual(r1.Violations, r2.Violations) || r1.Stats != r2.Stats {
		t.Errorf("replay diverged:\n%v\n%v", r1.Violations, r2.Violations)
	}
}

// TestChaosSameSeedBitForBit: the full chaos pipeline (generated plan
// with flaps, crash/restart, channel noise) is bit-for-bit reproducible:
// identical stats and identical trace streams.
func TestChaosSameSeedBitForBit(t *testing.T) {
	run := func() (Stats, []string) {
		ring := obs.NewRingSink(100000)
		c := &Campaign{
			Source:   pathVectorSrc,
			Topo:     func() *netgraph.Topology { return netgraph.Ring(6) },
			BaseSeed: 3,
			Gen:      faults.DefaultGenOptions(),
			Opts:     DefaultChaosOptions(),
		}
		c.Opts.Trace = obs.NewTracer(ring)
		rep, err := c.RunOne(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, e := range ring.Events() {
			lines = append(lines, fmt.Sprintf("%+v", e))
		}
		return rep.Stats, lines
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Errorf("stats diverge:\n%+v\n%+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at line %d:\n%s\n%s", i, t1[i], t2[i])
		}
	}
}

// TestCampaignStatsPinned pins per-seed behaviour across commits: the
// work counters and violation count of a few chaos runs must equal a
// table recorded from an earlier build. The determinism tests compare
// two runs of one build, so a change to the executor, the scan shuffle
// or the fault streams that still reproduces itself would pass them;
// this test catches it. A deliberate behaviour change regenerates the
// table and says why in its commit.
func TestCampaignStatsPinned(t *testing.T) {
	type pin struct {
		seed                                      uint64
		probes, derivs, sent, retracts, violating int
	}
	heal := DefaultChaosOptions()
	heal.Reliable, heal.CheckpointEvery, heal.AntiEntropy = true, 10, true
	crashGen := faults.DefaultGenOptions()
	crashGen.Crashes = 3
	ring := func(n int) func() *netgraph.Topology {
		return func() *netgraph.Topology { return netgraph.Ring(n) }
	}
	for _, tc := range []struct {
		name string
		c    *Campaign
		want []pin // seeds: faults.Mix(1, i), the fvn chaos defaults
	}{
		{"ring6", &Campaign{Source: pathVectorSrc, Topo: ring(6), Gen: faults.DefaultGenOptions(), Opts: DefaultChaosOptions()}, []pin{
			{10451216379200822465, 13317, 5812, 1245, 38, 0},
			{16834447057089888969, 23483, 9685, 2130, 66, 0},
			{17911839290282890590, 24905, 10246, 2279, 43, 0},
			{7862637804313477842, 25449, 10502, 2336, 47, 0},
		}},
		// 15577779263007795011 (benchmark seed 6, op 103) is a run whose
		// late retransmissions must not bring back expired routes.
		{"ring8-selfheal", &Campaign{Source: pathVectorSrc, Topo: ring(8), Gen: crashGen, Opts: heal}, []pin{
			{10451216379200822465, 33398, 14874, 3761, 57, 0},
			{16834447057089888969, 59313, 24631, 5584, 124, 0},
			{17911839290282890590, 59643, 24661, 5131, 106, 0},
			{7862637804313477842, 35452, 15634, 4027, 113, 0},
			{15577779263007795011, 38116, 16562, 4071, 106, 0},
		}},
		// A seed whose run on ring:8 violates the invariants, so the
		// violation count is pinned at a nonzero value too.
		{"ring8-violating", &Campaign{Source: pathVectorSrc, Topo: ring(8), Gen: faults.DefaultGenOptions(), Opts: DefaultChaosOptions()}, []pin{
			{12606162542674374877, 53910, 22319, 4045, 51, 3},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, want := range tc.want {
				rep, err := tc.c.RunSeed(context.Background(), want.seed)
				if err != nil {
					t.Fatal(err)
				}
				s := rep.Stats
				got := pin{want.seed, s.JoinProbes, s.Derivations, s.MessagesSent, s.Retractions, len(rep.Violations)}
				if got != want {
					t.Errorf("seed %d: {probes, derivs, sent, retracts, violations}\n got  %v\n want %v",
						want.seed, got, want)
				}
			}
		})
	}
}
