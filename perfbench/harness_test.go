package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tail(xs, 0.9); ok {
		t.Fatal("p90 of 99 samples reported; it has fewer than 10 samples beyond it")
	}
	xs = append(xs, 100)
	v, ok := tail(xs, 0.9)
	if !ok || v != quantile(xs, 0.9) {
		t.Fatalf("p90 of 100 samples = %v, %v; want %v, true", v, ok, quantile(xs, 0.9))
	}
	if _, ok := tail(make([]float64, 199), 0.95); ok {
		t.Fatal("p95 of 199 samples reported")
	}
}

func TestQuantileCountsFailedOpsAsMissingTheLimit(t *testing.T) {
	inf := math.Inf(1)
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := median([]float64{1, 2, inf}); got != 2 {
		t.Fatalf("median with one failure = %v, want 2", got)
	}
	if got := median([]float64{1, inf, inf}); !math.IsInf(got, 1) {
		t.Fatalf("median with most ops failed = %v, want +Inf", got)
	}
}

// A stall on the first request must be charged to the requests due while
// it lasted: their latency counts from the due time, and the generator
// reports how late it sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall, service = 60 * time.Millisecond, time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond}
	got := openLoop(due, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		} else {
			time.Sleep(service)
		}
		return nil
	})
	for i, want := range []time.Duration{0, stall - 10*time.Millisecond, stall - 20*time.Millisecond, 0} {
		s := got[i]
		if s.late() < want || s.late() > want+30*time.Millisecond {
			t.Errorf("request %d went out %v late, want about %v", i, s.late(), want)
		}
		if s.latency() < s.late()+s.done.Sub(s.send) {
			t.Errorf("request %d latency %v does not count from its due time", i, s.latency())
		}
	}
	if got[1].latency() < stall-10*time.Millisecond {
		t.Errorf("request 1 latency %v hides the stall ahead of it", got[1].latency())
	}
}

func TestArrivalsRepeatPerSeed(t *testing.T) {
	a, b := arrivals(7, 40, 20*time.Second), arrivals(7, 40, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival times")
	}
	if reflect.DeepEqual(a, arrivals(8, 40, 20*time.Second)) {
		t.Fatal("different seeds gave the same arrival times")
	}
	if n := len(a); n < 700 || n > 900 {
		t.Fatalf("%d arrivals in 20 s at 40/s", n)
	}
	cold := coldRequests(7, 95, 10)
	n := 0
	for _, c := range cold {
		if c {
			n++
		}
	}
	if n < 9 || n > 10 {
		t.Fatalf("%d cold requests of 95 at one in ten", n)
	}
}

// Each root's rows must sum to its total, and what no child covers is
// named as the unattributed row.
func TestLayerTableSumsToTotalAndNamesGap(t *testing.T) {
	msd := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "op.x", Start: msd(0), End: msd(100)},
		{ID: 1, Parent: 0, Name: "a.call", Start: msd(10), End: msd(40)},
		{ID: 2, Parent: 0, Name: "b.call", Start: msd(50), End: msd(80)},
		{ID: 3, Parent: 2, Name: "c.call", Start: msd(55), End: msd(60)},
		{ID: 4, Parent: -1, Name: "op.x", Start: msd(100), End: msd(150)},
		{ID: 5, Parent: 4, Name: "a.call", Start: msd(100), End: msd(150)},
	}
	rows := layerTable(spans)
	self := map[string]time.Duration{}
	var rowSum time.Duration
	for _, r := range rows {
		self[r.name] = r.self
		rowSum += r.self
		if r.name == "op.x" && (r.calls != 2 || r.total != msd(150)) {
			t.Fatalf("root row %+v, want 2 calls totalling 150ms", r)
		}
	}
	want := map[string]time.Duration{"op.x": 0, "a.call": msd(80), "b.call": msd(25), "c.call": msd(5), "unattributed": msd(40)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if rowSum != msd(150) {
		t.Fatalf("rows sum to %v, want the ops' 150ms", rowSum)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics this program
// reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.file {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.prog) {
			t.Errorf("BENCHMARK.json lists %v, program reports %v", got, c.prog)
		}
	}
}

// Only links off every cycle may not fail: removing one partitions the
// graph, and distance vector then counts to infinity by design.
func TestBridgesAreNeverFailed(t *testing.T) {
	// Triangle 0-1-2, pendant 2-3, then square 3-4-5-6.
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {3, 6}}
	got := bridges(7, edges)
	want := []bool{false, false, false, true, false, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bridges = %v, want %v", got, want)
	}
}
