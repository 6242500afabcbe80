package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Spans with Parent -1 are roots: an op
// ("op.<kind>") or a set-up repetition ("setup").
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Op       int           `json:"op"` // timed op id; set-up repetition r is -(r+1)
	Workload string        `json:"workload"`
	Name     string        `json:"name"` // <module>.<call>
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the whole run. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one branch per call.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Workload: t.workload, Name: name, Start: now, End: -1})
	return id
}

// stop closes span id.
func (t *tracer) stop(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose start and end were measured elsewhere, such as
// a server-reported execution time placed inside a round trip.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Workload: t.workload, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// durations returns the duration of every span named name, in milliseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerRow is one line of the per-layer table: every span of one name
// under one root name.
type layerRow struct {
	root  string // name of the root span the row sits under
	name  string // span name, or "unattributed"
	depth int
	calls int
	total time.Duration
	self  time.Duration
}

// layerTable aggregates spans into rows, one per (root name, span name)
// in tree order. A span's self time is its duration minus its children's;
// a root's self time is what no layer accounts for and is printed as
// "unattributed", so each root's rows always sum to its total.
func layerTable(spans []span) []layerRow {
	children := map[int][]int{}
	byID := map[int]span{}
	var roots []int
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent < 0 {
			roots = append(roots, s.ID)
		} else {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type key struct{ root, name string }
	rows := map[key]*layerRow{}
	var order []key
	var walk func(root string, id, depth int)
	walk = func(root string, id, depth int) {
		s := byID[id]
		var covered time.Duration
		for _, c := range children[id] {
			covered += byID[c].dur()
		}
		k := key{root, s.Name}
		r := rows[k]
		if r == nil {
			r = &layerRow{root: root, name: s.Name, depth: depth}
			rows[k] = r
			order = append(order, k)
		}
		r.calls++
		r.total += s.dur()
		r.self += s.dur() - covered
		for _, c := range children[id] {
			walk(root, c, depth+1)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return byID[roots[i]].Name < byID[roots[j]].Name })
	for _, id := range roots {
		walk(byID[id].Name, id, 0)
	}
	out := make([]layerRow, 0, len(order)+len(roots))
	for i, k := range order {
		r := *rows[k]
		if r.depth == 0 {
			r.self = 0 // shown below as the unattributed row
		}
		out = append(out, r)
		if i == len(order)-1 || order[i+1].root != k.root {
			root := rows[key{k.root, k.root}]
			out = append(out, layerRow{root: k.root, name: "unattributed", depth: 1, calls: root.calls, total: root.self, self: root.self})
		}
	}
	return out
}

// writeLayerTable prints rows in the EXPLAIN ANALYZE style: per layer, its
// calls, total and self time, its share of the root's time, and the median
// per call of the counts recorded against it (keyed "<root>/<name>").
func writeLayerTable(w io.Writer, workload string, rows []layerRow, counts map[string]map[string][]float64) {
	fmt.Fprintf(w, "\nper-layer breakdown, %s (traced ops only)\n", workload)
	fmt.Fprintf(w, "%-36s %7s %12s %12s %7s  %s\n", "layer", "calls", "total_ms", "self_ms", "self%", "counts (median per call)")
	var rootTotal time.Duration
	for _, r := range rows {
		if r.depth == 0 {
			rootTotal = r.total
		}
		share := 100 * ratio(float64(r.self), float64(rootTotal))
		fmt.Fprintf(w, "%-36s %7d %12.3f %12.3f %6.1f%%  %s\n", strings.Repeat("  ", r.depth)+r.name,
			r.calls, ms(r.total), ms(r.self), share, formatCounts(counts[r.root+"/"+r.name]))
	}
}

func formatCounts(c map[string][]float64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.6g", k, median(c[k]))
	}
	return strings.Join(parts, " ")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
