// Package faults is the deterministic fault-injection layer of the FVN
// distributed runtime: declarative fault plans (per-link channel noise,
// scheduled link flaps, network partitions, node crash/restart cycles),
// seeded random plan generation for chaos campaigns, and the splitmix64
// substream derivation that keeps every fault source on its own PRNG
// stream off one master seed — so a chaos run is replayed exactly by its
// seed, independent of how many other fault sources drew randomness.
//
// The package is pure data + PRNG: internal/dist interprets plans
// against its event queue, so faults never imports dist.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/netgraph"
)

// --- seeded substreams -----------------------------------------------------

// RNG is a splitmix64 pseudo-random stream. Unlike the LCGs used
// elsewhere in the repo, splitmix64's output is a bijective finalizer of
// its counter, so two streams derived from different labels never fall
// into lockstep.
type RNG struct{ state uint64 }

// NewRNG returns a stream seeded directly from seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 advances the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a float in [0,1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / float64(1<<53) }

// Intn returns an int in [0,n); n must be positive.
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Range returns a float in [lo,hi).
func (r *RNG) Range(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// Substream derives an independent stream from a master seed and a label
// path (e.g. Substream(seed, "chan", "n0", "n1") for the n0->n1 channel).
// The labels are folded in with FNV-1a so the derivation is order- and
// creation-time-independent: a channel's stream depends only on the seed
// and its own identity, never on how many other streams were created
// first. This is what keeps same-seed chaos runs bit-for-bit reproducible
// while fault sources are created lazily.
func Substream(seed uint64, labels ...string) *RNG {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * fnvPrime
		}
		h = (h ^ 0x1f) * fnvPrime // label separator
	}
	// One splitmix finalization over seed^h spreads the FNV state before
	// it becomes a counter base.
	r := &RNG{state: seed ^ h}
	r.state = r.Uint64()
	return r
}

// Mix derives the per-run seed of run i of a campaign from a base seed.
func Mix(base uint64, i int) uint64 {
	r := RNG{state: base ^ (uint64(i) * 0x9e3779b97f4a7c15)}
	return r.Uint64()
}

// --- declarative fault plans -----------------------------------------------

// Channel is the noise model of one directed link: each outgoing message
// is independently duplicated with probability Dup, lost with probability
// Loss, delayed by an extra uniform [0,Jitter) on top of the link
// latency, and, with probability Reorder, delayed by a further uniform
// [0,2·latency) so it can arrive behind later messages.
type Channel struct {
	Loss    float64 `json:"loss,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Jitter  float64 `json:"jitter,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`
}

// Zero reports whether the channel is noiseless.
func (c Channel) Zero() bool { return c == Channel{} }

// Flap is one scheduled down→up cycle of a link. Up <= Down means the
// link stays down for the rest of the run.
type Flap struct {
	Down float64 `json:"down"`
	Up   float64 `json:"up,omitempty"`
}

// LinkFault attaches channel noise and/or flaps to the symmetric link
// between A and B (both directions).
type LinkFault struct {
	A string `json:"a"`
	B string `json:"b"`
	Channel
	Flaps []Flap `json:"flaps,omitempty"`
}

// NodeFault is one crash/restart cycle. A crash wipes the node's tables
// and cancels its pending soft-state expiries — unlike a link failure,
// which only makes the node unreachable. Restart <= Crash means the node
// never comes back; a restarted node rejoins with empty tables and must
// recover via soft-state refresh.
type NodeFault struct {
	Node    string  `json:"node"`
	Crash   float64 `json:"crash"`
	Restart float64 `json:"restart,omitempty"`
}

// Partition cuts every link between Group and the rest of the topology
// at At and restores the surviving cut links at Heal (Heal <= At means
// the partition is permanent).
type Partition struct {
	At    float64  `json:"at"`
	Heal  float64  `json:"heal,omitempty"`
	Group []string `json:"group"`
}

// Plan is a declarative, seed-deterministic fault schedule. The Default
// channel applies to every directed link without a LinkFault override.
type Plan struct {
	Default    Channel     `json:"default"`
	Links      []LinkFault `json:"links,omitempty"`
	Nodes      []NodeFault `json:"nodes,omitempty"`
	Partitions []Partition `json:"partitions,omitempty"`
}

// Horizon returns the time of the last scheduled fault transition (0 for
// a pure-noise plan). Channel noise has no horizon: it applies for the
// whole run.
func (p *Plan) Horizon() float64 {
	h := 0.0
	up := func(t float64) {
		if t > h {
			h = t
		}
	}
	for _, l := range p.Links {
		for _, f := range l.Flaps {
			up(f.Down)
			up(f.Up)
		}
	}
	for _, n := range p.Nodes {
		up(n.Crash)
		up(n.Restart)
	}
	for _, pt := range p.Partitions {
		up(pt.At)
		up(pt.Heal)
	}
	return h
}

// PlanEvent is one scheduled fault transition of a plan in normalized
// form: Kind is "link_down", "link_up", "crash", "restart",
// "partition", or "heal". Provenance-annotated failure reports match
// the fault leaves on a violating tuple's lineage against these.
type PlanEvent struct {
	Kind  string   `json:"kind"`
	A     string   `json:"a,omitempty"`
	B     string   `json:"b,omitempty"`
	At    float64  `json:"at"`
	Group []string `json:"group,omitempty"`
}

// String renders the event compactly, e.g. "link_down n0-n1 @10s".
func (e PlanEvent) String() string {
	where := e.A
	switch e.Kind {
	case "link_down", "link_up":
		where = e.A + "-" + e.B
	case "partition", "heal":
		where = "{" + strings.Join(e.Group, ",") + "}"
	}
	return fmt.Sprintf("%s %s @%gs", e.Kind, where, e.At)
}

// Events returns every scheduled fault transition of the plan in
// normalized form, sorted by time (ties: declaration order).
func (p *Plan) Events() []PlanEvent {
	var out []PlanEvent
	for _, l := range p.Links {
		for _, f := range l.Flaps {
			out = append(out, PlanEvent{Kind: "link_down", A: l.A, B: l.B, At: f.Down})
			if f.Up > f.Down {
				out = append(out, PlanEvent{Kind: "link_up", A: l.A, B: l.B, At: f.Up})
			}
		}
	}
	for _, n := range p.Nodes {
		out = append(out, PlanEvent{Kind: "crash", A: n.Node, At: n.Crash})
		if n.Restart > n.Crash {
			out = append(out, PlanEvent{Kind: "restart", A: n.Node, At: n.Restart})
		}
	}
	for _, pt := range p.Partitions {
		out = append(out, PlanEvent{Kind: "partition", At: pt.At, Group: pt.Group})
		if pt.Heal > pt.At {
			out = append(out, PlanEvent{Kind: "heal", At: pt.Heal, Group: pt.Group})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks the plan against a topology: every named node must
// exist, every LinkFault must name a topology link, and probabilities
// and times must be sane.
func (p *Plan) Validate(topo *netgraph.Topology) error {
	nodes := map[string]bool{}
	for _, n := range topo.Nodes {
		nodes[n] = true
	}
	checkChan := func(c Channel, what string) error {
		for _, pr := range []struct {
			name string
			v    float64
		}{{"loss", c.Loss}, {"dup", c.Dup}, {"reorder", c.Reorder}} {
			if !(pr.v >= 0 && pr.v <= 1) { // NaN too
				return fmt.Errorf("faults: %s %s=%v outside [0,1]", what, pr.name, pr.v)
			}
		}
		if c.Jitter < 0 || math.IsNaN(c.Jitter) {
			return fmt.Errorf("faults: %s jitter=%v negative", what, c.Jitter)
		}
		return nil
	}
	if err := checkChan(p.Default, "default channel"); err != nil {
		return err
	}
	for _, l := range p.Links {
		if !nodes[l.A] || !nodes[l.B] {
			return fmt.Errorf("faults: link fault %s-%s names an unknown node", l.A, l.B)
		}
		if !topo.HasLink(l.A, l.B) {
			return fmt.Errorf("faults: link fault %s-%s is not a topology link", l.A, l.B)
		}
		if err := checkChan(l.Channel, "link "+l.A+"-"+l.B); err != nil {
			return err
		}
		for _, f := range l.Flaps {
			if f.Down < 0 {
				return fmt.Errorf("faults: link %s-%s flap at negative time %v", l.A, l.B, f.Down)
			}
		}
	}
	for _, n := range p.Nodes {
		if !nodes[n.Node] {
			return fmt.Errorf("faults: node fault names unknown node %s", n.Node)
		}
		if n.Crash < 0 {
			return fmt.Errorf("faults: node %s crashes at negative time %v", n.Node, n.Crash)
		}
	}
	for _, pt := range p.Partitions {
		if len(pt.Group) == 0 || len(pt.Group) >= len(topo.Nodes) {
			return fmt.Errorf("faults: partition group must be a nonempty proper subset, got %d of %d nodes",
				len(pt.Group), len(topo.Nodes))
		}
		for _, g := range pt.Group {
			if !nodes[g] {
				return fmt.Errorf("faults: partition names unknown node %s", g)
			}
		}
	}
	return nil
}

// Parse decodes a JSON plan (the --fault-plan file format).
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faults: bad plan: %w", err)
	}
	return &p, nil
}

// JSON renders the plan as indented JSON — the replay artifact printed
// when a campaign run fails.
func (p *Plan) JSON() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil { // unreachable: Plan has no unmarshalable fields
		return []byte("{}")
	}
	return b
}

// Summary renders a one-line human description (failure reports).
func (p *Plan) Summary() string {
	flaps := 0
	for _, l := range p.Links {
		flaps += len(l.Flaps)
	}
	noisy := 0
	for _, l := range p.Links {
		if !l.Channel.Zero() {
			noisy++
		}
	}
	return fmt.Sprintf("default=%+v noisy-links=%d flaps=%d crashes=%d partitions=%d horizon=%.0f",
		p.Default, noisy, flaps, len(p.Nodes), len(p.Partitions), p.Horizon())
}

// undirected returns the deduplicated, deterministically ordered list of
// undirected link pairs of a topology, with a representative cost.
func undirected(topo *netgraph.Topology) []netgraph.Link {
	seen := map[string]bool{}
	var out []netgraph.Link
	for _, l := range topo.Links {
		a, b := l.Src, l.Dst
		if a > b {
			a, b = b, a
		}
		k := a + "|" + b
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, netgraph.Link{Src: a, Dst: b, Cost: l.Cost, Latency: l.Latency})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
