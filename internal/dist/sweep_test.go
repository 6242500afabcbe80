package dist

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/netgraph"
)

// sweepKnownFailures lists, per benchmark seed, the chaos ops of the
// sweep below that fail today. Seed 9 op 188 (plan 13041444803237389928)
// is a plain run that loses to refresh starvation: a link with ~15% loss
// drops every refresh of a route for a whole lifetime, and the route
// expires after the plan's last fault, so a stability sample lands on
// the dropout.
var sweepKnownFailures = map[uint64][]int{
	9: {188},
}

// sweepOps is how many chaos ops per seed the sweep runs. A 30 s
// chaos-campaign benchmark run on a quiet 2-vCPU host completed 193 to
// 211 ops (seeds 4, 9 and 5), so ops 0-259 cover every op it reaches.
const sweepOps = 260

// TestChaosSweep runs the chaos ops of the repository benchmark's
// chaos-campaign workload, ops 0-259 of seeds 1-10, built exactly as
// perfbench builds them: the plan seed is faults.Mix(seed, op), even ops
// are plain runs, and odd ops are self-healing runs (Reliable,
// CheckpointEvery 10, AntiEntropy, 3 crashes) on ring:8. An op fails on
// a violation, a cancelled run or an unstable final sample. The test
// fails unless the failing ops are exactly sweepKnownFailures, so a
// change can check the benchmark's failed-op share before the benchmark
// runs. Gated behind FVN_SWEEP=1 (minutes of CPU); make chaos-sweep
// runs it.
func TestChaosSweep(t *testing.T) {
	if os.Getenv("FVN_SWEEP") == "" {
		t.Skip("set FVN_SWEEP=1 to run the benchmark's chaos ops")
	}
	heal := DefaultChaosOptions()
	heal.Reliable, heal.CheckpointEvery, heal.AntiEntropy = true, 10, true
	crashGen := faults.DefaultGenOptions()
	crashGen.Crashes = 3
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			var failed []int
			for op := 0; op < sweepOps; op++ {
				o, gen := DefaultChaosOptions(), faults.DefaultGenOptions()
				if op%2 == 1 {
					o, gen = heal, crashGen
				}
				o.Seed = faults.Mix(seed, op)
				topo := netgraph.Ring(8)
				plan := faults.Generate(o.Seed, topo, gen)
				rep, err := RunChaos(context.Background(), pathVectorSrc, topo, plan, o)
				if err != nil {
					t.Fatalf("op %d (plan %d): %v", op, o.Seed, err)
				}
				if rep.Cancelled || rep.Failed() || !rep.Stable {
					t.Logf("op %d fails (plan %d): %v", op, o.Seed, rep.Violations)
					failed = append(failed, op)
				}
			}
			if want := sweepKnownFailures[seed]; !slices.Equal(failed, want) {
				t.Errorf("failing ops %v, want %v", failed, want)
			}
		})
	}
}
