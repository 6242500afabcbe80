package netgraph

import (
	"strings"
	"testing"
)

// TestParseSpecRefusesOutOfRangeSizes: sizes outside [1, 1<<20] are
// refused from the spec text alone, and the largest graph accepted, a
// fat tree of about 2.9e17 nodes, is reported without overflow and
// without being built.
func TestParseSpecRefusesOutOfRangeSizes(t *testing.T) {
	for _, bad := range []string{"pa:-1", "ring:0", "grid:-3", "line:1048577", "ring:100000000", "ring:", "fattree:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	s, err := ParseSpec("fattree:1048576")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes < 1<<56 || s.Links < s.Nodes {
		t.Errorf("fattree:1048576 reported %d nodes and %d links", s.Nodes, s.Links)
	}
}

// FuzzTopoSpec: ParseSpec never panics, and a graph it accepts builds
// exactly the reported size (rand's link count is the most it can draw,
// so there the build may have fewer). Only graphs small enough to build
// quickly are built.
func FuzzTopoSpec(f *testing.F) {
	for _, seed := range []string{"line:3", "ring:5", "ring:2", "star:4", "tree:7", "clique:4", "grid:3",
		"rand:6", "pa:1", "pa:10", "fattree:3", "line", "pa:-1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if s.Nodes > 2000 || s.Links > 20000 {
			return
		}
		topo := s.Build()
		links := len(topo.Links)
		exact := !strings.HasPrefix(topo.Name, "rand")
		if len(topo.Nodes) != s.Nodes || links > s.Links || exact && links != s.Links {
			t.Fatalf("%q reported %d nodes and %d links, built %d and %d", spec, s.Nodes, s.Links, len(topo.Nodes), links)
		}
	})
}
