package dist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestMessageConservationUnderLoss pins the message-accounting invariant:
// every sent message is either delivered or dropped, under a lossy run.
func TestMessageConservationUnderLoss(t *testing.T) {
	topo := netgraph.Line(5)
	prog := ndlog.MustParse("pv", pathVectorSrc)
	opts := DefaultOptions()
	opts.Seed = 7
	net, err := NewNetwork(prog, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.2}}); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.MessagesDropped == 0 {
		t.Fatal("no messages dropped at loss 0.2 (test is vacuous)")
	}
	if s.MessagesSent != s.MessagesDelivered+s.MessagesDropped {
		t.Errorf("sent = %d, delivered %d + dropped %d = %d",
			s.MessagesSent, s.MessagesDelivered, s.MessagesDropped,
			s.MessagesDelivered+s.MessagesDropped)
	}
}

// TestTraceReconcilesWithStats checks that the trace-event stream and the
// counter view agree exactly: one event per counted occurrence.
func TestTraceReconcilesWithStats(t *testing.T) {
	topo := netgraph.Line(4)
	prog := ndlog.MustParse("pv", pathVectorSrc)
	opts := DefaultOptions()
	opts.Seed = 3
	opts.Obs = obs.NewCollector()
	ring := obs.NewRingSink(1 << 20)
	opts.Trace = obs.NewTracer(ring)
	net, err := NewNetwork(prog, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: 0.15}}); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range ring.Events() {
		counts[ev.Kind]++
	}
	if len(ring.Events()) != ring.Total() {
		t.Fatalf("ring overflowed: kept %d of %d events", len(ring.Events()), ring.Total())
	}
	s := res.Stats
	for _, chk := range []struct {
		kind string
		want int
	}{
		{obs.EvMessageSent, s.MessagesSent},
		{obs.EvMessageDelivered, s.MessagesDelivered},
		{obs.EvMessageDropped, s.MessagesDropped},
		{obs.EvTupleDerived, s.TupleUpdates},
		{obs.EvRouteFlip, s.Flips},
		{obs.EvExpired, s.Expirations},
	} {
		if counts[chk.kind] != chk.want {
			t.Errorf("%s events = %d, Stats says %d", chk.kind, counts[chk.kind], chk.want)
		}
	}
	if counts[obs.EvRunEnd] != 1 {
		t.Errorf("RunEnd events = %d, want 1", counts[obs.EvRunEnd])
	}

	// The external collector and Result.Stats are the same numbers: the
	// stats struct is a view over the collector.
	if got := opts.Obs.Value("dist", obs.MMsgSent, ""); got != int64(s.MessagesSent) {
		t.Errorf("collector msg_sent = %d, Stats.MessagesSent = %d", got, s.MessagesSent)
	}

	// Per-rule firings across the localized rules reconcile with the
	// Derivations total.
	var ruleFirings int64
	for _, r := range net.Program().Rules {
		ruleFirings += opts.Obs.Value("dist", obs.MRuleFirings, r.Label)
	}
	if ruleFirings != int64(s.Derivations) {
		t.Errorf("sum of per-rule firings = %d, Stats.Derivations = %d", ruleFirings, s.Derivations)
	}

	// Explain renders every localized rule with its annotations.
	var buf bytes.Buffer
	net.Explain(&buf, "pv")
	out := buf.String()
	if !strings.Contains(out, "EXPLAIN ANALYZE pv") {
		t.Errorf("missing header:\n%s", out)
	}
	for _, r := range net.Program().Rules {
		if !strings.Contains(out, r.Label+" ") {
			t.Errorf("explain missing rule %s:\n%s", r.Label, out)
		}
	}
}

// TestRouteFlipTraceEventFires guards the EvRouteFlip trace event, the
// replacement for the removed TraceFlips callback hook.
func TestRouteFlipTraceEventFires(t *testing.T) {
	// A two-node "disagree"-style oscillation is hard to build inline;
	// instead drive flips directly: alternate a keyed tuple's value.
	prog := ndlog.MustParse("flip", `
materialize(pref, infinity, infinity, keys(1)).
`)
	topo := &netgraph.Topology{Name: "one", Nodes: []string{"a"}}
	opts := DefaultOptions()
	opts.LoadTopologyLinks = false
	ring := obs.NewRingSink(64)
	opts.Trace = obs.NewTracer(ring)
	net, err := NewNetwork(prog, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v string) value.Tuple {
		return value.Tuple{value.Addr("a"), value.Str(v)}
	}
	net.Inject(1, "a", "pref", mk("x"))
	net.Inject(2, "a", "pref", mk("y"))
	net.Inject(3, "a", "pref", mk("x")) // x -> y -> x: one flip
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flips != 1 {
		t.Fatalf("flips = %d, want 1", res.Stats.Flips)
	}
	flipEvents := 0
	for _, ev := range ring.Events() {
		if ev.Kind == obs.EvRouteFlip {
			flipEvents++
		}
	}
	if flipEvents != 1 {
		t.Errorf("EvRouteFlip events = %d, want 1", flipEvents)
	}
}
