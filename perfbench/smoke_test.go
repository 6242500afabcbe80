package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var smokeConfig = config{setupReps: 2, ispNodes: 300, ispLinks: 8, rps: 40, coldEvery: 4, replays: 2}

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced, and requires correct outputs, no failed op, and deterministic
// counts that repeat exactly between the two runs of the same seed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*bench
			for i, traced := range []bool{false, true} {
				var out bytes.Buffer
				b := newBench(smokeConfig, w, 7, 1500*time.Millisecond, traced, t.TempDir(), &out)
				if err := b.execute(); err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Fatalf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
					if !traced && (m.Value == nil || *m.Value <= 0) {
						t.Fatalf("end-to-end metric %s is not positive", d.name)
					}
				}
				runs[i] = b
			}
			n := 0
			for name, a := range runs[0].counts {
				if strings.HasPrefix(name, "go.") {
					continue
				}
				c := runs[1].counts[name]
				for i := 0; i < len(a) && i < len(c); i++ {
					if a[i] != c[i] {
						t.Fatalf("%s of op %d: %v then %v; counts must repeat per seed", name, i, a[i], c[i])
					}
					n++
				}
			}
			if w.name != "verify-serve" && n == 0 {
				t.Fatal("no deterministic count was compared")
			}
		})
	}
}
