package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/netgraph"
)

// chaosCounters are the ChaosReport.Stats fields counted on every run;
// healCounters only on self-healing runs, where they are nonzero.
var (
	chaosCounters = []string{"msgs_sent", "msgs_delivered", "msgs_dropped", "msgs_duplicated", "derivations",
		"join_probes", "tuple_updates", "expirations", "retractions"}
	healCounters = []string{"retransmits", "acks", "rel_giveups", "checkpoints", "restores", "repair_pulls"}
)

// runChaos alternates plain and self-healing checked chaos runs of the
// path-vector protocol on ring:8, run i under the fault plan of seed
// faults.Mix(seed, i). It has nothing to build, so set-up repetition r is
// a warm-up of runs 2r and 2r+1; their counts are the reference the timed
// runs must repeat exactly.
func runChaos(b *bench) error {
	ref := map[int]map[string]int{}
	for r := 0; r < b.cfg.setupReps; r++ {
		start := time.Now()
		root := b.tr.start("setup", -(r + 1), -1)
		for op := 2 * r; op < 2*r+2; op++ {
			rep, _, err := chaosOp(b.seed, op, b.tr, -(r + 1), root)
			if rep == nil {
				return fmt.Errorf("warm-up run %d: %w", op, err)
			}
			// A failing run is counted when the timed phase repeats it.
			if err != nil {
				b.note("warm-up run %d: %v", op, err)
			}
			ref[op] = statCounts(rep.Stats)
		}
		b.tr.stop(root)
		b.setupDone(start)
	}
	b.settle()

	var heal []*dist.ChaosReport
	end := b.deadline()
	for op := 0; time.Now().Before(end); op++ {
		k := op % 2
		t := b.tracerFor(op / 2)
		stop := b.memTrack(t)
		root := t.start("op."+b.w.kinds[k], op, -1)
		rep, elapsed, err := chaosOp(b.seed, op, t, op, root)
		t.stop(root)
		stop()
		// A violation is the chaos checker doing its job: the report is a
		// correct account of the protocol failing under that plan. It
		// fails the op but does not make the run's output wrong.
		b.done(op, err, false)
		if err != nil {
			continue
		}
		b.sample(k, t, elapsed)
		got := statCounts(rep.Stats)
		if want, ok := ref[op]; ok {
			b.same(fmt.Sprintf("run %d vs warm-up", op), want, got)
		}
		names := chaosCounters
		if k == 1 {
			names = healCounters
			heal = append(heal, rep)
			b.count("dist.retransmit_ratio", ratio(float64(got["retransmits"]), float64(got["msgs_sent"])))
		} else {
			b.count("dist.delivered_ratio", ratio(float64(got["msgs_delivered"]), float64(got["msgs_sent"])))
		}
		for _, c := range names {
			b.count("dist."+c, float64(got[c]))
			if t != nil {
				b.rowCount("op."+b.w.kinds[k], "dist.run_chaos", c, float64(got[c]))
			}
		}
	}
	if b.tr != nil {
		spans := b.tr.closed()
		b.layer["faults.generate_ms"] = median(durations(spans, "faults.generate"))
		b.layer["dist.run_chaos_ms"] = median(durations(spans, "dist.run_chaos"))
		if agg := dist.RecoveryPercentiles(heal); agg != nil {
			b.layer["dist.recovery_sim_ms.p95"] = agg.P95
		}
	}
	return nil
}

// chaosOptions returns the options of op kind k: 0 is the plain campaign
// default (soft state with refresh; lossy, duplicating and reordering
// channels, flaps, a crash, partitions), 1 the crash-heavy self-healing
// campaign (reliable channels, checkpoints every 10, anti-entropy, three
// crashes).
func chaosOptions(k int) (dist.ChaosOptions, faults.GenOptions) {
	o, gen := dist.DefaultChaosOptions(), faults.DefaultGenOptions()
	if k == 1 {
		o.Reliable, o.CheckpointEvery, o.AntiEntropy = true, 10, true
		gen.Crashes = 3
	}
	return o, gen
}

// chaosOp runs op i (kind i%2) with its spans under root, and checks the
// report: no violation, not cancelled, stable. A nil report with an error
// means the run could not execute.
func chaosOp(seed uint64, i int, t *tracer, op, root int) (*dist.ChaosReport, float64, error) {
	k := i % 2
	s := faults.Mix(seed, i)
	o, gen := chaosOptions(k)
	o.Seed = s
	topo := netgraph.Ring(8)

	start := time.Now()
	g := t.start("faults.generate", op, root)
	plan := faults.Generate(s, topo, gen)
	t.stop(g)
	c := t.start("dist.run_chaos", op, root)
	rep, err := dist.RunChaos(context.Background(), core.PathVectorSrc, topo, plan, o)
	t.stop(c)
	elapsed := ms(time.Since(start))
	if err != nil {
		return nil, elapsed, fmt.Errorf("seed %d: %w", s, err)
	}
	switch {
	case rep.Cancelled:
		return rep, elapsed, fmt.Errorf("seed %d: run cancelled", s)
	case rep.Failed():
		return rep, elapsed, fmt.Errorf("seed %d: %d violations, first: %s", s, len(rep.Violations), rep.Violations[0])
	case !rep.Stable:
		return rep, elapsed, fmt.Errorf("seed %d: routes not stable at the check", s)
	}
	return rep, elapsed, nil
}
