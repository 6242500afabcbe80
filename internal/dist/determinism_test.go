package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
)

// determinismPlan is a non-trivial fault plan touching every fault
// source: a default noisy channel, a per-link override with a flap, a
// node crash/restart, and a partition with heal. Each source draws from
// its own seed-derived PRNG substream, so the bit-for-bit contract must
// survive all of them at once.
func determinismPlan() *faults.Plan {
	return &faults.Plan{
		Default: faults.Channel{Loss: 0.05, Dup: 0.1, Jitter: 1.5, Reorder: 0.3},
		Links: []faults.LinkFault{{
			A: "n2", B: "n3",
			Channel: faults.Channel{Loss: 0.2, Jitter: 3},
			Flaps:   []faults.Flap{{Down: 12, Up: 25}},
		}},
		Nodes:      []faults.NodeFault{{Node: "n4", Crash: 18, Restart: 30}},
		Partitions: []faults.Partition{{At: 8, Heal: 20, Group: []string{"n0", "n1"}}},
	}
}

// runSeeded executes the path-vector program on a ring under the given
// seed — with loss, a raw link failure, and (when withPlan) the full
// determinismPlan plus refresh waves — and returns the run result plus
// the full rendered trace stream.
func runSeeded(t *testing.T, seed uint64, withPlan bool) (Result, string) {
	return runSeededOpts(t, seed, withPlan, false)
}

// runSeededOpts is runSeeded with the self-healing layer optionally
// enabled (reliable channels, checkpoints, anti-entropy all at once).
func runSeededOpts(t *testing.T, seed uint64, withPlan, selfHeal bool) (Result, string) {
	t.Helper()
	ring := obs.NewRingSink(1 << 17)
	opts := Options{
		MaxTime:           10_000,
		LoadTopologyLinks: true,
		Seed:              seed,
		Trace:             obs.NewTracer(ring),
	}
	if selfHeal {
		opts.Reliable = true
		opts.CheckpointEvery = 7
		opts.AntiEntropy = true
	}
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), netgraph.Ring(6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.2}}); err != nil {
		t.Fatal(err)
	}
	// A link failure mid-run exercises the event paths beyond plain
	// flooding (link-down scan, aggregate recomputation, retraction).
	net.FailLink(5, "n0", "n1")
	if withPlan {
		if err := net.ApplyPlan(determinismPlan()); err != nil {
			t.Fatal(err)
		}
		net.InjectRefresh(4, 4, 60)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ev := range ring.Events() {
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	return res, b.String()
}

// TestSameSeedRunsBitForBitReproducible pins the determinism contract:
// every remaining source of randomness in the distributed runtime — the
// seeded scan shuffle and each fault channel's own substream — derives
// from Options.Seed, so two runs with equal seeds must produce identical
// statistics and identical trace streams, event for event. The withPlan variant repeats the check under a full
// fault plan (noisy channels, a flap, a crash/restart, a partition with
// heal, refresh waves).
func TestSameSeedRunsBitForBitReproducible(t *testing.T) {
	for _, variant := range []struct {
		name               string
		withPlan, selfHeal bool
	}{
		{"plain", false, false},
		{"faultplan", true, false},
		// All three self-healing mechanisms at once: backoff jitter and
		// ack-loss draw from their own "rel" substreams, so the contract
		// must hold with the full protocol stack active.
		{"selfheal", true, true},
	} {
		withPlan, selfHeal := variant.withPlan, variant.selfHeal
		t.Run(variant.name, func(t *testing.T) {
			for _, seed := range []uint64{0, 1, 42} {
				r1, t1 := runSeededOpts(t, seed, withPlan, selfHeal)
				r2, t2 := runSeededOpts(t, seed, withPlan, selfHeal)
				if r1.Stats != r2.Stats {
					t.Errorf("seed %d: stats differ:\n  %+v\n  %+v", seed, r1.Stats, r2.Stats)
				}
				if r1.Converged != r2.Converged || r1.Time != r2.Time {
					t.Errorf("seed %d: results differ: %+v vs %+v", seed, r1, r2)
				}
				if t1 != t2 {
					// Find the first diverging line for a readable failure.
					l1, l2 := strings.Split(t1, "\n"), strings.Split(t2, "\n")
					for i := 0; i < len(l1) && i < len(l2); i++ {
						if l1[i] != l2[i] {
							t.Errorf("seed %d: traces diverge at event %d:\n  %s\n  %s", seed, i, l1[i], l2[i])
							break
						}
					}
					if len(l1) != len(l2) {
						t.Errorf("seed %d: trace lengths differ: %d vs %d events", seed, len(l1), len(l2))
					}
				}
			}
		})
	}
}
