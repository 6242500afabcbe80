package dist

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

// prefSrc is a program with a non-topology base fact: pref(@n1,100) is
// injected once and nothing re-derives it, so a crash loses it forever —
// unless a checkpoint restores it.
const prefSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(pref, infinity, infinity, keys(1)).
materialize(reach, infinity, infinity, keys(1,2)).

pref(@n1, 100).
r1 reach(@S,D) :- link(@S,D,C).
`

func mustNet(t *testing.T, src string, topo *netgraph.Topology, opts Options) *Network {
	t.Helper()
	prog := ndlog.MustParse("selfheal", src)
	net, err := NewNetwork(prog, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestReliableChannelDeliversUnderLoss: with 40% channel loss the
// reliable layer must still converge the path-vector program to the
// shortest-path truth, visibly retransmitting and acking, and the
// per-link at-least-once accounting must balance.
func TestReliableChannelDeliversUnderLoss(t *testing.T) {
	topo := netgraph.Ring(5)
	net := mustNet(t, pathVectorSrc, topo, Options{Seed: 3, LoadTopologyLinks: true, Reliable: true})
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.4}}); err != nil {
		t.Fatal(err)
	}
	r, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("run did not converge")
	}
	truth := net.Topology().ShortestCosts()
	for _, src := range net.Topology().Nodes {
		got := map[string]int64{}
		for _, tup := range net.Query(src, "bestPathCost") {
			got[tup[1].S] = tup[2].I
		}
		for dst, c := range truth[src] {
			if got[dst] != c {
				t.Errorf("%s bestPathCost to %s = %d, want %d", src, dst, got[dst], c)
			}
		}
	}
	s := r.Stats
	if s.Retransmits == 0 || s.Acks == 0 {
		t.Errorf("expected retransmissions and acks under 40%% loss, got retx=%d acks=%d", s.Retransmits, s.Acks)
	}
	if s.MessagesSent != s.MessagesDelivered+s.MessagesDropped+net.PendingMessages() {
		t.Errorf("conservation broken: sent=%d delivered=%d dropped=%d pending=%d",
			s.MessagesSent, s.MessagesDelivered, s.MessagesDropped, net.PendingMessages())
	}
	for _, rl := range net.RelLinkStats() {
		if rl.Assigned != rl.Acked+rl.GaveUp+rl.Pending {
			t.Errorf("link %s: assigned %d != acked %d + gave_up %d + pending %d",
				rl.Link, rl.Assigned, rl.Acked, rl.GaveUp, rl.Pending)
		}
	}
}

// TestReliableHealsWhatFireAndForgetLoses: without refresh, a hard-state
// run under 20% loss simply loses derivations; the reliable layer must
// close exactly that gap — the same seed converges to the full truth.
func TestReliableHealsWhatFireAndForgetLoses(t *testing.T) {
	run := func(reliable bool) (int, int) {
		net := mustNet(t, pathVectorSrc, netgraph.Ring(5), Options{Seed: 11, LoadTopologyLinks: true, Reliable: reliable})
		if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.2}}); err != nil {
			t.Fatal(err)
		}
		r, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged {
			t.Fatal("run did not converge")
		}
		truth := net.Topology().ShortestCosts()
		want, good := 0, 0
		for _, src := range net.Topology().Nodes {
			got := map[string]int64{}
			for _, tup := range net.Query(src, "bestPathCost") {
				got[tup[1].S] = tup[2].I
			}
			for dst, c := range truth[src] {
				want++
				if got[dst] == c {
					good++
				}
			}
		}
		return good, want
	}
	lossyGood, want := run(false)
	if lossyGood == want {
		t.Fatalf("seed 11 should lose some routes fire-and-forget (got %d/%d) — pick a lossier seed", lossyGood, want)
	}
	relGood, want := run(true)
	if relGood != want {
		t.Errorf("reliable run still missing routes: %d/%d", relGood, want)
	}
}

// TestCheckpointRestoresBaseFacts: pref(@n1,100) cannot be re-derived, so
// a crash loses it — except when a checkpoint snapshotted it first. Also
// pins that derived state (reach) is NOT checkpointed: it must come back
// via re-derivation, not restoration.
func TestCheckpointRestoresBaseFacts(t *testing.T) {
	run := func(every float64) *Network {
		net := mustNet(t, prefSrc, netgraph.Ring(4), Options{Seed: 1, LoadTopologyLinks: true, CheckpointEvery: every})
		net.CrashNode(5, "n1")
		net.RestartNode(9, "n1")
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net
	}
	without := run(0)
	if got := without.Query("n1", "pref"); len(got) != 0 {
		t.Fatalf("without checkpoints the crashed fact should be gone, got %v", got)
	}
	with := run(3)
	if got := with.Query("n1", "pref"); len(got) != 1 || got[0][1].I != 100 {
		t.Fatalf("checkpoint restore lost pref: %v", got)
	}
	r, err := with.RunUntil(with.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Checkpoints == 0 || r.Stats.Restores != 1 {
		t.Errorf("stats: checkpoints=%d restores=%d", r.Stats.Checkpoints, r.Stats.Restores)
	}
	// reach at n1 must equal the re-derived set (one entry per neighbor),
	// proving restoration went through rule evaluation, not table copy.
	if got := len(with.Query("n1", "reach")); got != 2 {
		t.Errorf("n1 reach entries = %d, want 2 (re-derived from restored links)", got)
	}
}

// TestBasePredsExcludeDerived: the checkpointed set is exactly the
// relations no localized rule derives.
func TestBasePredsExcludeDerived(t *testing.T) {
	net := mustNet(t, pathVectorSrc, netgraph.Ring(3), Options{LoadTopologyLinks: true})
	base := map[string]bool{}
	for _, p := range net.BasePreds() {
		base[p] = true
	}
	if !base["link"] {
		t.Errorf("link should be base, got %v", net.BasePreds())
	}
	for _, p := range []string{"path", "bestPath", "bestPathCost"} {
		if base[p] {
			t.Errorf("%s is derived and must not be checkpointed (base = %v)", p, net.BasePreds())
		}
	}
}

// TestAntiEntropyRepairsRestartedNode: hard-state path vector, so a
// restarted node cannot relearn multi-hop routes from no-op re-inserts —
// without repair it is left with only its 1-hop routes, while an
// anti-entropy round pulls exactly the missing paths from neighbors.
func TestAntiEntropyRepairsRestartedNode(t *testing.T) {
	run := func(ae bool) *Network {
		net := mustNet(t, pathVectorSrc, netgraph.Ring(5), Options{Seed: 2, LoadTopologyLinks: true, AntiEntropy: ae})
		net.CrashNode(10, "n1")
		net.RestartNode(14, "n1")
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net
	}
	without := run(false)
	if got := len(without.Query("n1", "bestPathCost")); got >= 4 {
		t.Fatalf("expected the restarted node to be missing multi-hop routes without repair, has %d/4", got)
	}
	with := run(true)
	truth := with.Topology().ShortestCosts()["n1"]
	got := map[string]int64{}
	for _, tup := range with.Query("n1", "bestPathCost") {
		got[tup[1].S] = tup[2].I
	}
	for dst, c := range truth {
		if got[dst] != c {
			t.Errorf("after repair n1 bestPathCost to %s = %d, want %d", dst, got[dst], c)
		}
	}
	r, err := with.RunUntil(with.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.RepairRounds == 0 || r.Stats.RepairPulls == 0 {
		t.Errorf("stats: repair_rounds=%d repair_pulls=%d", r.Stats.RepairRounds, r.Stats.RepairPulls)
	}
}

// TestChaosCampaignSelfHealing is the tentpole acceptance shape in
// miniature: crash/restart plans plus channel noise with all three
// mechanisms on — zero violations (including the new reliability and
// restore-equivalence checks), recovery percentiles measured, and
// bit-for-bit reproducible reports.
func TestChaosCampaignSelfHealing(t *testing.T) {
	mk := func() *Campaign {
		o := DefaultChaosOptions()
		o.Reliable = true
		o.CheckpointEvery = 10
		o.AntiEntropy = true
		g := faults.DefaultGenOptions()
		g.RestartProb = 1 // every crash restarts: enables the restore check
		return &Campaign{
			Source:   pathVectorSrc,
			Topo:     func() *netgraph.Topology { return netgraph.Ring(6) },
			Runs:     6,
			BaseSeed: 99,
			Gen:      g,
			Opts:     o,
		}
	}
	reports, err := mk().Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sawRecovery := false
	for i, rep := range reports {
		if rep.Failed() {
			t.Errorf("run %d (seed %d) failed:\n  plan: %s\n  violations: %v",
				i, rep.Seed, rep.Plan.Summary(), rep.Violations)
		}
		if rep.RecoveryMS != nil {
			sawRecovery = true
			if len(rep.Recoveries) == 0 {
				t.Errorf("run %d: RecoveryMS set but no samples", i)
			}
		}
	}
	if !sawRecovery {
		t.Error("no run measured any recovery (expected crash/restart plans)")
	}
	// Reproducibility: the rendered reports of a re-execution are
	// byte-identical.
	again, err := mk().Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if a, b := string(reports[i].JSON()), string(again[i].JSON()); a != b {
			t.Errorf("run %d report not reproducible:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestChaosHardOmitsRecoveryMetrics: the negative control must report the
// self-healing metrics as absent, not zero.
func TestChaosHardOmitsRecoveryMetrics(t *testing.T) {
	plan := &faults.Plan{Nodes: []faults.NodeFault{{Node: "n2", Crash: 8, Restart: 20}}}
	o := DefaultChaosOptions()
	o.Seed = 5
	o.Hard = true
	o.Reliable = true // forced off by Hard
	o.CheckpointEvery = 10
	o.AntiEntropy = true
	rep, err := RunChaos(context.Background(), pathVectorSrc, netgraph.Ring(5), plan, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryMS != nil || rep.Recoveries != nil || rep.RetransmitsByLink != nil {
		t.Errorf("hard run must omit recovery metrics: %s", rep.JSON())
	}
	if rep.Stats.Retransmits != 0 || rep.Stats.Checkpoints != 0 || rep.Stats.RepairRounds != 0 {
		t.Errorf("hard run must not run the mechanisms: %+v", rep.Stats)
	}
	js := string(rep.JSON())
	for _, field := range []string{"recovery_ms", "retransmits_by_link", "recoveries"} {
		if strings.Contains(js, field) {
			t.Errorf("hard JSON report contains %q: %s", field, js)
		}
	}
}

// TestRestoreCheckCatchesDivergence: sanity-check the restore oracle
// machinery itself — a run whose plan restarts every crashed node and
// has checkpoints enabled performs the comparison (and passes on a
// clean crash/restart cycle).
func TestRestoreCheckCatchesDivergence(t *testing.T) {
	plan := &faults.Plan{Nodes: []faults.NodeFault{{Node: "n2", Crash: 10, Restart: 25}}}
	o := DefaultChaosOptions()
	o.Seed = 4
	o.CheckpointEvery = 8
	o.AntiEntropy = true
	rep, err := RunChaos(context.Background(), pathVectorSrc, netgraph.Ring(5), plan, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean crash/restart cycle failed restore equivalence: %v", rep.Violations)
	}
	if rep.RecoveryMS == nil || rep.RecoveryMS.Samples == 0 {
		t.Fatalf("expected a recovery sample, got %s", rep.JSON())
	}
	if rep.RecoveryMS.P95 < 0 || rep.RecoveryMS.Max < rep.RecoveryMS.P95 {
		t.Errorf("incoherent percentiles: %+v", rep.RecoveryMS)
	}
}

// TestRetransmitAgesOutExpiredEntries: a retransmission carries only the
// entries younger than their predicate's soft-state lifetime, hard-state
// entries always go, and a message left with no entry is given up and
// counted as a give-up, so the per-link accounting still balances.
func TestRetransmitAgesOutExpiredEntries(t *testing.T) {
	const src = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(ad, 10, infinity, keys(1,2)).
materialize(seen, infinity, infinity, keys(1,2)).
r1 seen(@S,D) :- ad(@S,D).
`
	net := mustNet(t, src, netgraph.Line(2), Options{Seed: 1, LoadTopologyLinks: true, Reliable: true})
	tup := value.Tuple{value.Addr("n1"), value.Addr("n0")}
	batch := []msgEntry{{pred: "ad", tup: tup}, {pred: "seen", tup: tup}}
	p := &relPending{entries: batch}

	net.now = 9.5
	if !net.relAgeOut(p) || len(p.entries) != 2 {
		t.Fatalf("at age 9.5 of lifetime 10: kept %d entries, want 2", len(p.entries))
	}
	net.now = 10
	if !net.relAgeOut(p) || len(p.entries) != 1 || p.entries[0].pred != "seen" {
		t.Fatalf("at age 10: kept %v, want only the hard-state entry", p.entries)
	}
	if batch[0].pred != "ad" || batch[1].pred != "seen" {
		t.Errorf("aging out rewrote the batch shared with in-flight copies: %v", batch)
	}

	net.now = 0
	net.send("n0", "n1", []msgEntry{{pred: "ad", tup: tup}}, false)
	net.now = 10
	net.relRetransmit(&event{kind: evRelRetx, from: "n0", node: "n1", rseq: 1, attempt: 1})
	s := net.Stats()
	if s.Retransmits != 0 || s.RelGiveUps != 1 {
		t.Errorf("expired message: retransmits=%d give-ups=%d, want 0 and 1", s.Retransmits, s.RelGiveUps)
	}
	for _, rl := range net.RelLinkStats() {
		if rl.Assigned != rl.Acked+rl.GaveUp+rl.Pending {
			t.Errorf("link %s: assigned %d != acked %d + gave_up %d + pending %d",
				rl.Link, rl.Assigned, rl.Acked, rl.GaveUp, rl.Pending)
		}
	}
}
