package netgraph

import (
	"fmt"
	"strconv"
	"strings"
)

// maxSpecSize bounds a spec's size parameter, so every size ParseSpec
// reports is computed without overflow.
const maxSpecSize = 1 << 20

// Spec is a parsed topology spec: the size of the graph it names, known
// before anything is built, and Build, which builds a fresh copy (each
// caller may mutate its own).
type Spec struct {
	// Nodes is the node count. Links is the directed link count; for
	// rand, whose extra links are drawn at random, it is the most the
	// generator can draw (every pair of nodes linked).
	Nodes, Links int
	Build        func() *Topology
}

// ParseSpec parses a topology spec "family[:size]" without building it:
// line, ring, star, tree and clique take the node count, grid the side
// of a square grid (grid:3 is 3x3), rand the node count of a random
// connected graph, pa the node count of an ISP-like preferential-
// attachment graph, and fattree the arity k (fattree:8 is 80 switches
// and 128 hosts). The size defaults to 4 and must lie in [1, 1<<20].
func ParseSpec(spec string) (Spec, error) {
	family, size, found := strings.Cut(spec, ":")
	n := 4
	if found {
		v, err := strconv.Atoi(size)
		if err != nil {
			return Spec{}, fmt.Errorf("bad topology size %q", size)
		}
		if v < 1 || v > maxSpecSize {
			return Spec{}, fmt.Errorf("topology size %d outside [1, %d]", v, maxSpecSize)
		}
		n = v
	}
	spanning := 2 * (n - 1) // directed links of a spanning tree
	switch family {
	case "line":
		return Spec{n, spanning, func() *Topology { return Line(n) }}, nil
	case "ring":
		links := spanning
		if n > 2 {
			links += 2
		}
		return Spec{n, links, func() *Topology { return Ring(n) }}, nil
	case "star":
		return Spec{n, spanning, func() *Topology { return Star(n) }}, nil
	case "tree":
		return Spec{n, spanning, func() *Topology { return Tree(n) }}, nil
	case "clique":
		return Spec{n, n * (n - 1), func() *Topology { return Clique(n) }}, nil
	case "grid":
		return Spec{n * n, 4 * n * (n - 1), func() *Topology { return Grid(n, n) }}, nil
	case "rand":
		return Spec{n, n * (n - 1), func() *Topology { return RandomConnected(n, 0.1, 3, 1) }}, nil
	case "pa":
		// Barabási–Albert preferential attachment, 2 links per new node
		// (the second node gets one): the ISP-like heavy-tailed degree
		// graph of the scale tests.
		links := 0
		if n > 1 {
			links = 2 * (2*n - 3)
		}
		return Spec{n, links, func() *Topology { return PreferentialAttachment(n, 2, 7) }}, nil
	case "fattree":
		k := n + n%2 // FatTree rounds the arity up to even
		h := k / 2
		return Spec{h*h + k*(2*h+h*h), 6 * k * h * h, func() *Topology { return FatTree(n) }}, nil
	}
	return Spec{}, fmt.Errorf("unknown topology %q", family)
}
