package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/linear"
	"repro/internal/modelcheck"
	"repro/internal/netgraph"
)

// The model-check instances and the counts every op must reproduce.
const (
	disagreeK      = 4 // Disagree chain length, under subset activation
	disagreeStates = 2401
	disagreeTrans  = 102575
	dvMaxCost      = 10 // distance vector on a 6-node line, last link failed
	dvStates       = 1669
	dvTrans        = 5498
	mcMaxStates    = 1 << 16 // the fvn mc default bound
)

type mcSystems struct {
	disagree bgp.System
	dv       linear.TS
}

// mcOptions is the fvn mc default: one expansion worker per CPU.
func mcOptions() modelcheck.Options {
	return modelcheck.Options{MaxStates: mcMaxStates, Workers: runtime.NumCPU()}
}

// runModelCheck alternates two model-checking ops on fixed instances, in a
// seed-permuted order: (a) count the k=4 Disagree chain's states and find
// its oscillation lasso, (b) count the distance-vector system's states and
// find its count-to-infinity state. Set-up builds both systems and runs
// one warm-up op of each kind.
func runModelCheck(b *bench) error {
	var sys mcSystems
	for r := 0; r < b.cfg.setupReps; r++ {
		start := time.Now()
		op := -(r + 1)
		root := b.tr.start("setup", op, -1)
		var err error
		if sys, err = mcBuild(b.tr, op, root); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			// A failing op is counted when the timed phase repeats it.
			if _, err := mcOp(sys, k, b.tr, op, root); err != nil {
				b.note("warm-up %s: %v", b.w.kinds[k], err)
			}
		}
		b.tr.stop(root)
		b.setupDone(start)
	}
	b.settle()

	rng := rand.New(rand.NewPCG(b.seed, 0x3c))
	end := b.deadline()
	op := 0
	for cycle := 0; time.Now().Before(end); cycle++ {
		t := b.tracerFor(cycle)
		order := [2]int{0, 1}
		if rng.IntN(2) == 1 {
			order = [2]int{1, 0}
		}
		for _, k := range order {
			stop := b.memTrack(t)
			start := time.Now()
			root := t.start("op."+b.w.kinds[k], op, -1)
			c, err := mcOp(sys, k, t, op, root)
			t.stop(root)
			elapsed := ms(time.Since(start))
			stop()
			b.done(op, err, true)
			op++
			if err != nil {
				continue
			}
			b.sample(k, t, elapsed)
			kind := b.w.kinds[k]
			for _, name := range []string{"states", "transitions", "dedup_hits", "frontier_peak", "max_depth"} {
				b.count("modelcheck."+name+"."+kind, float64(c[name]))
			}
			b.count("modelcheck.dedup_ratio."+kind, ratio(float64(c["dedup_hits"]), float64(c["transitions"])))
			if t != nil {
				for name, v := range c {
					row := "modelcheck.count"
					if name == "trace_len" {
						row = []string{"modelcheck.lasso", "modelcheck.reach"}[k]
					}
					b.rowCount("op."+kind, row, name, float64(v))
				}
			}
		}
	}
	if b.tr != nil {
		spans := b.tr.closed()
		for name, metric := range map[string]string{
			"bgp.build": "bgp.build_ms", "linear.build": "linear.build_ms",
			"modelcheck.lasso": "modelcheck.lasso_ms", "modelcheck.reach": "modelcheck.reach_ms",
		} {
			b.layer[metric] = median(durations(spans, name))
		}
		// The count search runs in both kinds; split it by op kind.
		name := map[int]string{}
		for _, s := range spans {
			name[s.ID] = s.Name
		}
		for k, kind := range b.w.kinds {
			var xs []float64
			for _, s := range spans {
				if s.Name == "modelcheck.count" && name[s.Parent] == "op."+kind {
					xs = append(xs, ms(s.dur()))
				}
			}
			b.layer["modelcheck.count_ms."+kind] = median(xs)
			trans := []float64{disagreeTrans, dvTrans}[k]
			b.layer["modelcheck.us_per_transition."+kind] = 1000 * median(xs) / trans
		}
	}
	return nil
}

// mcBuild builds both transition systems.
func mcBuild(t *tracer, op, root int) (mcSystems, error) {
	s := t.start("bgp.build", op, root)
	spp := bgp.DisagreeChain(disagreeK)
	err := spp.Validate()
	t.stop(s)
	if err != nil {
		return mcSystems{}, err
	}
	s = t.start("linear.build", op, root)
	dv, err := linear.DistanceVector(linear.DVConfig{
		Topo: netgraph.Line(6), Dest: "n5", MaxCost: dvMaxCost, FailA: "n4", FailB: "n5",
	})
	t.stop(s)
	if err != nil {
		return mcSystems{}, err
	}
	return mcSystems{disagree: bgp.System{SPP: spp, Mode: bgp.Subsets}, dv: linear.TS{Sys: dv}}, nil
}

// mcOp runs one op of kind k and checks it against the pinned counts and
// verdicts. It returns the count search's statistics.
func mcOp(sys mcSystems, k int, t *tracer, op, root int) (map[string]int, error) {
	ctx := context.Background()
	opts := mcOptions()
	var target modelcheck.System = sys.disagree
	wantStates, wantTrans := disagreeStates, disagreeTrans
	if k == 1 {
		target, wantStates, wantTrans = sys.dv, dvStates, dvTrans
	}
	s := t.start("modelcheck.count", op, root)
	n, res := modelcheck.CountReachable(ctx, target, opts)
	t.stop(s)
	st := res.Stats
	if err := searchComplete(st); err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	if n != wantStates || st.Transitions != wantTrans {
		return nil, fmt.Errorf("count: %d states, %d transitions, want %d and %d", n, st.Transitions, wantStates, wantTrans)
	}

	var check modelcheck.Result
	if k == 0 {
		s = t.start("modelcheck.lasso", op, root)
		check = modelcheck.FindLasso(ctx, sys.disagree, nil, opts)
		t.stop(s)
	} else {
		s = t.start("modelcheck.reach", op, root)
		check = modelcheck.CheckReachable(ctx, sys.dv, linear.RouteAtCost(dvMaxCost-1), opts)
		t.stop(s)
	}
	if err := searchComplete(check.Stats); err != nil && check.Verdict != modelcheck.VerdictHolds {
		return nil, fmt.Errorf("check: %w", err)
	}
	if check.Verdict != modelcheck.VerdictHolds || len(check.Trace) == 0 {
		return nil, fmt.Errorf("check: verdict %s, want a counterexample", check.Verdict)
	}
	return map[string]int{
		"states": n, "transitions": st.Transitions, "dedup_hits": st.DedupHits,
		"frontier_peak": st.FrontierPeak, "max_depth": st.MaxDepth, "trace_len": len(check.Trace),
	}, nil
}

func searchComplete(st modelcheck.Stats) error {
	switch {
	case st.Cancelled:
		return fmt.Errorf("search cancelled")
	case st.Truncated:
		return fmt.Errorf("state bound hit")
	}
	return nil
}
