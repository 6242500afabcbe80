package dist

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
)

// TestNetworkRunCtxCancelPreservesQueue: cancelling a run stops the
// event loop but leaves every pending event queued, so a further Run
// resumes the simulation from exactly where it stopped and still
// converges.
func TestNetworkRunCtxCancelPreservesQueue(t *testing.T) {
	net, err := NewNetwork(ndlog.MustParse("pv", pathVectorSrc), netgraph.Ring(6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := net.RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Converged {
		t.Fatalf("pre-cancelled run: cancelled=%v converged=%v, want cancelled and not converged",
			res.Cancelled, res.Converged)
	}
	if net.queue.Len() == 0 {
		t.Fatal("cancelled run drained the event queue; resumption is impossible")
	}
	// Resume with an open context: the run must pick up the queued
	// events and converge as if never interrupted.
	res, err = net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled || !res.Converged {
		t.Fatalf("resumed run: cancelled=%v converged=%v, want a clean convergence",
			res.Cancelled, res.Converged)
	}
}

// TestCtxBackgroundPathNoExtraAllocs pins the cost of the context
// plumbing in the event loop: with context.Background() the per-event
// gate is a nil check, so a full simulation run allocates exactly what
// it allocates under a live (never-fired) cancellable context — the
// disabled path pays zero extra allocations.
//
// Only RunCtx is measured. Under the race detector NewNetwork's
// allocation count varies by a few from one build to the next, while a
// run's count does not, so the networks are built before measuring.
func TestCtxBackgroundPathNoExtraAllocs(t *testing.T) {
	prog := ndlog.MustParse("pv", pathVectorSrc)
	const runs = 10
	perRun := func(ctx context.Context) float64 {
		// AllocsPerRun calls the function once more than runs, to warm up.
		nets := make([]*Network, runs+1)
		for i := range nets {
			net, err := NewNetwork(prog, netgraph.Ring(5), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			nets[i] = net
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			res, err := nets[next].RunCtx(ctx)
			next++
			if err != nil || !res.Converged {
				t.Fatalf("run: converged=%v err=%v", res.Converged, err)
			}
		})
	}
	bg := perRun(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := perRun(ctx)
	if bg > live {
		t.Errorf("Background run allocates %.1f/run, live-context run %.1f/run; the disabled path must not cost extra",
			bg, live)
	}
}

// TestCampaignCancelPreservesCompletedRuns is the replayability
// contract: a campaign cancelled mid-flight returns the reports of
// every run that completed before the cancel, and each of those runs —
// being a pure function of its seed — replays byte-identically under a
// fresh uncancelled campaign.
func TestCampaignCancelPreservesCompletedRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	calls := 0
	c := &Campaign{
		Source: pathVectorSrc,
		// Topo runs once per campaign run, before the simulation starts:
		// cancelling inside the 3rd call makes run 2 start with a fired
		// context, so runs 0 and 1 complete and run 2 is cut short.
		Topo: func() *netgraph.Topology {
			if calls++; calls == 3 {
				cancel()
			}
			return netgraph.Ring(6)
		},
		Runs:     5,
		BaseSeed: 42,
		Gen:      faults.DefaultGenOptions(),
		Opts:     DefaultChaosOptions(),
	}
	var out bytes.Buffer
	reports, err := c.Execute(ctx, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("cancelled campaign returned %d reports, want 3 (two complete + one cancelled)", len(reports))
	}
	if reports[0].Cancelled || reports[1].Cancelled {
		t.Fatal("runs completed before the cancel are marked Cancelled")
	}
	if !reports[2].Cancelled {
		t.Fatal("the run interrupted by the cancel is not marked Cancelled")
	}
	if len(reports[2].Violations) != 0 {
		t.Errorf("cancelled run reports violations %v; partial state must stay inconclusive", reports[2].Violations)
	}
	if !bytes.Contains(out.Bytes(), []byte("CANCELLED")) {
		t.Errorf("campaign log does not mark the cancelled run:\n%s", out.String())
	}

	// Replay the completed runs seed-by-seed under a fresh campaign with
	// an open context; the reports must be byte-identical.
	replay := &Campaign{
		Source:   pathVectorSrc,
		Topo:     func() *netgraph.Topology { return netgraph.Ring(6) },
		Runs:     5,
		BaseSeed: 42,
		Gen:      faults.DefaultGenOptions(),
		Opts:     DefaultChaosOptions(),
	}
	for i := 0; i < 2; i++ {
		rep, err := replay.RunSeed(context.Background(), c.SeedFor(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep.JSON(), reports[i].JSON()) {
			t.Errorf("run %d not replayable after campaign cancel:\n  campaign: %s\n  replay:   %s",
				i, reports[i].JSON(), rep.JSON())
		}
	}
}
