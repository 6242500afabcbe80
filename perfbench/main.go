// Command perfbench is the repository's benchmark. It runs one of four
// workloads from seed-derived inputs through the production entry points in
// their shipped default configuration, checks the output of every op, and
// prints a report whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records a span around every call into a layer (from this package, never
// inside the program), prints a per-layer table, and the metrics are the
// per-layer ones. See README.md for why each workload and metric exists.
//
//	go run . --workload isp-failover --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config sizes a run. defaultConfig is the benchmark; the self-tests use
// smaller sizes.
type config struct {
	setupReps int     // set-up repetitions; setup_s is their median
	ispNodes  int     // isp-failover preferential-attachment graph size
	ispLinks  int     // isp-failover links to fail, cycled through in seeded order
	rps       float64 // verify-serve offered rate, requests per second
	coldEvery int     // verify-serve: one request in coldEvery is a cache:false proof
	replays   int     // verify-serve traced replays of each kind
}

var defaultConfig = config{setupReps: 3, ispNodes: 10_000, ispLinks: 64, rps: 40, coldEvery: 10, replays: 8}

// workload is one benchmark workload: two interleaved op kinds, reported
// end to end as op_a_ms.p50 and op_b_ms.p50.
type workload struct {
	name  string
	kinds [2]string // op kinds a and b; kind k's latency is reported as <k>_ms
	run   func(b *bench) error
}

var workloads = []workload{
	{"isp-failover", [2]string{"failover", "restore"}, runISP},
	{"chaos-campaign", [2]string{"chaos_run", "heal_run"}, runChaos},
	{"verify-serve", [2]string{"verify", "prove"}, runVerifyServe},
	{"model-check", [2]string{"disagree", "dv"}, runModelCheck},
}

// cpuSteal returns the steal and total CPU time counters of /proc/stat
// (in clock ticks); both are 0 where the file is unavailable.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// opNames are the result-line names of op kinds a and b.
var opNames = [2]string{"op_a", "op_b"}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"op_a_ms.p50", "ms"},
	{"op_b_ms.p50", "ms"},
}

// bench is one run of one workload: its settings and what it measured.
type bench struct {
	cfg     config
	w       workload
	seed    uint64
	seconds time.Duration
	workdir string  // spans and temporary files go here
	tr      *tracer // nil unless --trace 1
	out     io.Writer

	setupS    []float64
	heapMB    float64
	lat       [2][2][]float64 // [kind][traced] op latencies in ms
	attempted int
	failed    int
	wrong     int                             // failed ops whose output was incorrect, and count mismatches
	notes     []string                        // the first failure messages
	counts    map[string][]float64            // per-op counts, by per-layer metric name
	rowCounts map[string]map[string][]float64 // per-call counts, by "<root>/<span>" table row
	layer     map[string]float64              // per-layer metrics the workload computed
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "isp-failover, chaos-campaign, verify-serve or model-check")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for span dumps and temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	b := newBench(defaultConfig, *w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, stdout)
	if err := b.execute(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func newBench(cfg config, w workload, seed uint64, seconds time.Duration, traced bool, workdir string, out io.Writer) *bench {
	b := &bench{cfg: cfg, w: w, seed: seed, seconds: seconds, workdir: workdir, out: out,
		counts: map[string][]float64{}, rowCounts: map[string]map[string][]float64{}, layer: map[string]float64{}}
	if traced {
		b.tr = newTracer(w.name)
	}
	return b
}

// execute runs the workload and prints the report and the result line.
func (b *bench) execute() error {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "perfbench %s  seed=%d  seconds=%.1f  trace=%v\n", b.w.name, b.seed, b.seconds.Seconds(), b.tr != nil)
	fmt.Fprintf(b.out, "env: nproc=%d GOMAXPROCS=%d %s %s/%s, traffic on loopback\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	steal0, total0 := cpuSteal()
	if err := b.w.run(b); err != nil {
		return err
	}
	// On a shared VM the hypervisor can run other guests on this guest's
	// CPUs; that time shows in every latency, so the report states it.
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Fprintf(b.out, "host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	var metrics map[string]any
	if b.tr == nil {
		metrics = b.endToEndMetrics()
	} else {
		var err error
		if metrics, err = b.perLayerMetrics(); err != nil {
			return err
		}
	}
	for _, n := range b.notes {
		fmt.Fprintf(b.out, "FAIL %s\n", n)
	}
	res := map[string]any{
		"correct":   b.wrong == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "%s\n", line)
	return nil
}

// tracerFor returns the tracer for op cycle c, or nil when the cycle is not
// traced. In a traced run every other cycle is traced, so traced and
// untraced ops interleave and their difference is the tracing overhead.
func (b *bench) tracerFor(cycle int) *tracer {
	if b.tr == nil || cycle%2 == 0 {
		return nil
	}
	return b.tr
}

// sample records one op's latency for kind k (0 = a, 1 = b).
func (b *bench) sample(k int, t *tracer, ms float64) {
	i := 0
	if t != nil {
		i = 1
	}
	b.lat[k][i] = append(b.lat[k][i], ms)
}

// done counts one attempted op; a non-nil err marks it failed, and wrong
// marks the failure as an incorrect output rather than a refusal.
func (b *bench) done(op int, err error, wrong bool) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if wrong {
		b.wrong++
	}
	b.note("op %d: %v", op, err)
}

func (b *bench) note(format string, args ...any) {
	if len(b.notes) < 10 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// count records one op's value of a per-layer counter; the metric is the
// median over ops.
func (b *bench) count(name string, v float64) { b.counts[name] = append(b.counts[name], v) }

// rowCount records a count against one row of the per-layer table.
func (b *bench) rowCount(root, row, name string, v float64) {
	k := root + "/" + row
	if b.rowCounts[k] == nil {
		b.rowCounts[k] = map[string][]float64{}
	}
	b.rowCounts[k][name] = append(b.rowCounts[k][name], v)
}

// same checks that counts which are a pure function of the seed repeated
// exactly; a mismatch makes the run incorrect.
func (b *bench) same(what string, want, got map[string]int) {
	if maps.Equal(want, got) {
		return
	}
	b.wrong++
	b.note("%s: counts did not repeat: want %v, got %v", what, want, got)
}

// setupDone records one set-up repetition's duration.
func (b *bench) setupDone(start time.Time) {
	b.setupS = append(b.setupS, time.Since(start).Seconds())
}

// settle collects set-up garbage so it is not billed to the first timed op,
// and records the live heap the timed ops start from: the heap the
// collection just marked, without whatever was allocated after it. The
// second collection empties the sync.Pool victim caches the first one
// filled, whose size depends on scheduling rather than on the workload.
func (b *bench) settle() {
	runtime.GC()
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	b.heapMB = float64(live[0].Value.Uint64()) / 1e6
}

// memTrack returns a function that records the bytes allocated and GC
// cycles run since the call as one op's go.alloc_mb and go.gc_cycles. It
// reads the runtime's statistics only for traced ops.
func (b *bench) memTrack(t *tracer) func() {
	if t == nil {
		return func() {}
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		b.count("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		b.count("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
	}
}

// deadline is when the timed phase stops starting new ops.
func (b *bench) deadline() time.Time { return time.Now().Add(b.seconds) }

func (b *bench) endToEndMetrics() map[string]any {
	fmt.Fprintf(b.out, "\nops: attempted=%d failed=%d\n", b.attempted, b.failed)
	fmt.Fprintf(b.out, "%-22s %14s %-5s %6s  %s\n", "metric", "value", "unit", "n", "reported as")
	m := map[string]any{}
	put := func(name, alias, unit string, v float64, n int) {
		fmt.Fprintf(b.out, "%-22s %14.4f %-5s %6d  %s\n", name, v, unit, n, alias)
		if alias != "" {
			m[alias] = metricValue(v, unit)
		}
	}
	put("setup_s", "setup_s", "s", median(b.setupS), len(b.setupS))
	put("heap_mb", "heap_mb", "MB", b.heapMB, 1)
	for k, kind := range b.w.kinds {
		xs := b.lat[k][0]
		put(kind+"_ms.p50", opNames[k]+"_ms.p50", "ms", median(xs), len(xs))
		if v, ok := tail(xs, 0.9); ok {
			put(kind+"_ms.p90", "", "ms", v, len(xs))
		} else {
			fmt.Fprintf(b.out, "%-22s %14s %-5s %6d  dropped: p90 needs %d samples\n", kind+"_ms.p90", "-", "ms", len(xs), minBeyond*10)
		}
	}
	return m
}

func (b *bench) perLayerMetrics() (map[string]any, error) {
	spans := b.tr.closed()
	fmt.Fprintf(b.out, "\nops: attempted=%d failed=%d (every other op cycle traced)\n", b.attempted, b.failed)
	fmt.Fprintf(b.out, "%-22s %12s %12s %12s\n", "end-to-end p50", "untraced_ms", "traced_ms", "overhead")
	for k, kind := range b.w.kinds {
		u, t := median(b.lat[k][0]), median(b.lat[k][1])
		over := 100 * ratio(t-u, u)
		fmt.Fprintf(b.out, "%-22s %12.3f %12.3f %11.1f%%  (n=%d/%d)\n", kind+"_ms", u, t, over, len(b.lat[k][0]), len(b.lat[k][1]))
		b.layer["trace.overhead_pct."+opNames[k]] = over
	}
	var rootTotal, unattributed time.Duration
	rows := layerTable(spans)
	for _, r := range rows {
		switch {
		case r.depth == 0:
			rootTotal += r.total
		case r.name == "unattributed":
			unattributed += r.self
		}
	}
	b.layer["trace.unattributed_pct"] = 100 * ratio(float64(unattributed), float64(rootTotal))
	writeLayerTable(b.out, b.w.name, rows, b.rowCounts)

	path := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err := b.tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(spans), path)

	for name, xs := range b.counts {
		if _, ok := b.layer[name]; !ok {
			b.layer[name] = median(xs)
		}
	}
	// GC lands on few ops, so its per-op median is usually 0: report the
	// mean instead.
	if xs := b.counts["go.gc_cycles"]; len(xs) > 0 {
		b.layer["go.gc_cycles"] = sum(xs) / float64(len(xs))
	}
	m := map[string]any{}
	known := map[string]bool{}
	fmt.Fprintf(b.out, "\nper-layer metrics (0: layer not reached by this workload)\n")
	for _, d := range perLayer {
		known[d.name] = true
		v := b.layer[d.name]
		m[d.name] = metricValue(v, d.unit)
		if _, ok := b.layer[d.name]; ok {
			fmt.Fprintf(b.out, "  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	var unknown []string
	for name := range b.layer {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("per-layer metrics missing from the metric list: %v", unknown)
	}
	return m, nil
}

// metricValue is one metric in the result line. A non-finite value (no
// samples, a tail the run was too short for, or most ops failed) is written
// as null.
func metricValue(v float64, unit string) map[string]any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return map[string]any{"value": nil, "unit": unit}
	}
	return map[string]any{"value": v, "unit": unit}
}
