package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// captureStdout swaps the subcommand output sink for a buffer.
func captureStdout(t *testing.T) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	old := stdout
	stdout = &b
	t.Cleanup(func() { stdout = old })
	return &b
}

func TestParseTopo(t *testing.T) {
	cases := []struct {
		spec  string
		nodes int
	}{
		{"line:3", 3},
		{"ring:5", 5},
		{"grid:2", 4},
		{"clique:4", 4},
		{"star:4", 4},
		{"tree:7", 7},
		{"rand:6", 6},
		{"line", 4}, // default size
	}
	for _, tc := range cases {
		topo, err := parseTopo(tc.spec)
		if err != nil {
			t.Errorf("parseTopo(%q): %v", tc.spec, err)
			continue
		}
		if len(topo.Nodes) != tc.nodes {
			t.Errorf("parseTopo(%q) nodes = %d, want %d", tc.spec, len(topo.Nodes), tc.nodes)
		}
	}
	// Sizes below 1 are refused before anything is built (pa:-1 used to
	// panic in PreferentialAttachment).
	for _, bad := range []string{"mobius:4", "ring:x", "pa:-1", "ring:0"} {
		if _, err := parseTopo(bad); err == nil {
			t.Errorf("parseTopo(%q) accepted", bad)
		}
	}
}

func TestDemoRuns(t *testing.T) {
	if err := cmdDemo(nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlgebraCommand(t *testing.T) {
	if err := cmdAlgebra([]string{"-name", "addA"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAlgebra([]string{"-name", "zzz"}); err == nil {
		t.Error("unknown algebra accepted")
	}
}

func TestParseCmdFlagPositions(t *testing.T) {
	file := "../../examples/ndlog/pathvector.ndlog"
	for _, args := range [][]string{
		{"-topo", "line:3", file},
		{file, "-topo", "line:3"},
	} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.String("topo", "ring:4", "")
		p, err := parseCmd(fs, args)
		if err != nil {
			t.Errorf("parseCmd(%v): %v", args, err)
			continue
		}
		if p == nil || len(p.Program.Rules) == 0 {
			t.Errorf("parseCmd(%v): protocol not loaded", args)
		}
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	if _, err := parseCmd(fs, []string{file, "extra"}); err == nil {
		t.Error("parseCmd accepted a stray positional argument")
	}
	fs = flag.NewFlagSet("run", flag.ContinueOnError)
	if _, err := parseCmd(fs, []string{"-x"}); err == nil {
		t.Error("parseCmd accepted an unknown flag")
	}
}

// TestRunExplainAndTrace covers the acceptance path: flags before the
// file, EXPLAIN output, and a JSONL trace whose message events reconcile.
func TestRunExplainAndTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	err := cmdRun([]string{"--explain", "--trace", trace, "-topo", "line:4", "-loss", "0.1",
		"../../examples/ndlog/pathvector.ndlog"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		counts[ev.Kind]++
	}
	if counts[obs.EvMessageSent] == 0 {
		t.Fatal("no message_sent events in trace")
	}
	if got := counts[obs.EvMessageDelivered] + counts[obs.EvMessageDropped]; got != counts[obs.EvMessageSent] {
		t.Errorf("delivered %d + dropped %d != sent %d",
			counts[obs.EvMessageDelivered], counts[obs.EvMessageDropped], counts[obs.EvMessageSent])
	}
	if counts[obs.EvRunEnd] != 1 {
		t.Errorf("run_end events = %d, want 1", counts[obs.EvRunEnd])
	}
}

// TestRunWithFaultFlags drives the new channel flags and a fault plan
// through cmdRun end to end.
func TestRunWithFaultFlags(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	body := `{"links": [{"a": "n0", "b": "n1", "flaps": [{"down": 5, "up": 12}]}]}`
	if err := os.WriteFile(plan, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdRun([]string{"-topo", "ring:4", "-loss", "0.05", "-dup", "0.2",
		"-delay-jitter", "1.5", "-seed", "7", "-fault-plan", plan,
		"../../examples/ndlog/pathvector.ndlog"})
	if err != nil {
		t.Fatal(err)
	}
	// A malformed plan is rejected.
	if err := os.WriteFile(plan, []byte(`{"links": [{"a": "nX", "b": "n1"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdRun([]string{"-topo", "ring:4", "-fault-plan", plan,
		"../../examples/ndlog/pathvector.ndlog"})
	if err == nil {
		t.Error("cmdRun accepted a plan naming an unknown node")
	}
}

// TestChaosCommand covers the campaign, the hard-mode negative control,
// and seed replay through the CLI surface.
func TestChaosCommand(t *testing.T) {
	if err := cmdChaos([]string{"-n", "2", "-topo", "ring:5", "-seed", "9"}); err != nil {
		t.Fatalf("clean campaign failed: %v", err)
	}
	// Hard mode with link faults must fail...
	err := cmdChaos([]string{"-n", "2", "-topo", "ring:5", "-seed", "9", "-hard"})
	if err == nil {
		t.Fatal("hard-mode campaign reported no violation")
	}
	// ...and an explicit plan runs outside the generator.
	plan := filepath.Join(t.TempDir(), "plan.json")
	body := `{"partitions": [{"at": 10, "heal": 30, "group": ["n0", "n1"]}]}`
	if err := os.WriteFile(plan, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdChaos([]string{"-topo", "ring:5", "-plan", plan}); err != nil {
		t.Fatalf("explicit-plan chaos run failed: %v", err)
	}
}

// TestWhyCommandGolden is the acceptance golden: `fvn why` on ring:6
// reproduces the derivation tree of a known one-hop route exactly.
func TestWhyCommandGolden(t *testing.T) {
	out := captureStdout(t)
	if err := cmdWhy([]string{"-topo", "ring:6", "-tuple", "bestPathCost(n0,n1,1)"}); err != nil {
		t.Fatal(err)
	}
	const want = `why bestPathCost(n0,n1,1) @n0:
  bestPathCost(n0,n1,1) @n0  t=0s
    rule r3 @n0  t=0s
      path(n0,n1,[n0,n1],1) @n0  t=0s
        rule r1 @n0  t=0s
          link(n0,n1,1) @n0  [base]  t=0s
`
	if out.String() != want {
		t.Errorf("why golden mismatch:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestWhyJSONAndWhyNot covers the -json rendering and the why-not
// explanations through the CLI surface.
func TestWhyJSONAndWhyNot(t *testing.T) {
	out := captureStdout(t)
	if err := cmdWhy([]string{"-json", "-topo", "ring:6", "-tuple", "bestPathCost(n0,n2,2)"}); err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(out.Bytes(), &tree); err != nil {
		t.Fatalf("why -json is not valid JSON: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `"kind": "message"`) {
		t.Errorf("two-hop why -json tree has no message edge:\n%s", out.String())
	}

	out.Reset()
	if err := cmdWhyNot([]string{"-topo", "ring:6", "-tuple", "bestPathCost(n0,n1,9)"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "primary key is held by bestPathCost(n0,n1,1)") {
		t.Errorf("why-not missing key-occupant explanation:\n%s", out.String())
	}

	// A why on an absent tuple points at why-not.
	if err := cmdWhy([]string{"-topo", "ring:6", "-tuple", "bestPathCost(n0,n1,9)"}); err == nil {
		t.Error("why on an absent tuple succeeded")
	}
	// -tuple is mandatory.
	if err := cmdWhy([]string{"-topo", "ring:6"}); err == nil {
		t.Error("why without -tuple succeeded")
	}
}

// TestChaosJSONReport: a failing hard-state run with -prov -json emits a
// machine-readable report naming the violated check, the violating
// tuple, and a root-cause chain matched to the plan's fault event.
func TestChaosJSONReport(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "flap.json")
	body := `{"links": [{"a": "n0", "b": "n1", "flaps": [{"down": 10}]}]}`
	if err := os.WriteFile(plan, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t)
	err := cmdChaos([]string{"-topo", "ring:5", "-plan", plan, "-hard", "-prov", "-json"})
	if err == nil {
		t.Fatal("hard-state run under a permanent link failure reported no violation")
	}
	var rep struct {
		Violations []struct {
			Check string `json:"check"`
			Pred  string `json:"pred"`
			Tuple string `json:"tuple"`
		} `json:"violations"`
		RootCause []string `json:"root_cause"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		t.Fatalf("chaos -json is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Violations) == 0 {
		t.Fatal("report has no violations")
	}
	v := rep.Violations[0]
	if v.Check != "safety" || v.Pred == "" || v.Tuple == "" {
		t.Errorf("violation lacks machine-readable fields: %+v", v)
	}
	rc := strings.Join(rep.RootCause, "\n")
	if !strings.Contains(rc, "link_down") || !strings.Contains(rc, "[plan: link_down n0-n1 @10s]") {
		t.Errorf("root cause does not name the plan's link fault:\n%s", rc)
	}
}

func TestVerifyAutoExplain(t *testing.T) {
	err := cmdVerify([]string{"-auto", "--explain", "-theorem", "bestPathCostStrong",
		"../../examples/ndlog/pathvector.ndlog"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMCExplain(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "mc.jsonl")
	err := cmdMC([]string{"--explain", "--trace", trace, "../../examples/ndlog/pathvector.ndlog"})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("mc trace file empty or missing: %v", err)
	}
}
