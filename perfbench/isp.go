package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/ndlog"
	"repro/internal/netgraph"
	"repro/internal/value"
)

// dvSrc is the single-destination distance-vector program of the dist
// package's scale tests: hard state, one destination, O(degree) state per
// node, so a 10^4-node graph fits in one process.
const dvSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(self, infinity, infinity, keys(1)).
materialize(nbrb, infinity, infinity, keys(1,2,3)).
materialize(c, infinity, infinity, keys(1,2,3)).
materialize(b, infinity, infinity, keys(1,2)).

a1 nbrb(@N,Z,D,C) :- link(@Z,N,LC), b(@Z,D,C).
s1 c(@N,N,0) :- self(@N).
s2 c(@N,D,C) :- link(@N,Z,LC), nbrb(@N,Z,D,CB), C=LC+CB.
b1 b(@N,D,min<C>) :- c(@N,D,C).
`

const ispRoot = "n0"

type ispLink struct {
	a, b string
	cost int64
}

// runISP converges the distance-vector program on a seeded
// preferential-attachment graph, then fails and restores seed-chosen links
// one at a time, checking every node's best cost against Dijkstra after
// each Run. Only links whose removal keeps the graph connected are failed:
// on a partition distance vector counts to infinity by design.
func runISP(b *bench) error {
	prog, err := ndlog.Parse("dv", dvSrc)
	if err != nil {
		return err
	}
	var (
		net      *dist.Network
		links    []ispLink
		converge map[string]int
		probe    [2]map[string]int
	)
	for r := 0; r < b.cfg.setupReps; r++ {
		net = nil // let the previous repetition's network be collected
		runtime.GC()
		n, err := ispSetup(b, prog, r)
		if err != nil {
			return err
		}
		if err := checkRoutes(n, b.tr, -(r + 1)); err != nil {
			b.wrong++
			b.note("set-up %d: %v", r, err)
		}
		got := statCounts(n.Stats())
		if r == 0 {
			converge = got
			links = failableLinks(n.Topology(), b.seed, b.cfg.ispLinks)
			if len(links) == 0 {
				return fmt.Errorf("no link can fail without partitioning the graph")
			}
			// The first op, run on an independent network built from the
			// same seed: the timed op 0 must repeat its counts exactly.
			// A failing probe is counted when the timed op 0 repeats it.
			_, _, d, err := ispCycle(n, links[0], 0, nil)
			if err != nil {
				b.note("probe op: %v", err)
			}
			probe = d
		} else {
			b.same(fmt.Sprintf("converge (set-up %d)", r), converge, got)
		}
		net = n
	}
	b.settle()

	end := b.deadline()
	for op := 0; time.Now().Before(end); op++ {
		t := b.tracerFor(op)
		stop := b.memTrack(t)
		fail, restore, d, err := ispCycle(net, links[op%len(links)], op, t)
		stop()
		b.done(op, err, true)
		if err != nil {
			continue
		}
		b.sample(0, t, fail)
		b.sample(1, t, restore)
		if op == 0 {
			b.same("op 0 failover vs probe", probe[0], d[0])
			b.same("op 0 restore vs probe", probe[1], d[1])
		}
		for _, c := range ispCounters {
			b.count("dist."+c, float64(d[0][c]+d[1][c]))
			if t != nil {
				b.rowCount("op.failover", "dist.run", c, float64(d[0][c]))
				b.rowCount("op.restore", "dist.run", c, float64(d[1][c]))
			}
		}
	}
	if b.tr != nil {
		spans := b.tr.closed()
		for name, metric := range map[string]string{
			"netgraph.gen": "netgraph.gen_ms", "ndlog.analyze": "ndlog.analyze_ms",
			"dist.new_network": "dist.new_network_ms", "dist.converge": "dist.converge_ms",
			"dist.run": "dist.run_ms.p50", "dist.query": "dist.query_ms", "netgraph.truth": "netgraph.truth_ms",
		} {
			b.layer[metric] = median(durations(spans, name))
		}
		b.layer["dist.schedule_us"] = 1000 * median(durations(spans, "dist.schedule"))
		// Time per delivered message over the whole run: the per-event
		// cost that does not shrink when a failure touches few routes.
		opMS := sum(b.lat[0][0]) + sum(b.lat[0][1]) + sum(b.lat[1][0]) + sum(b.lat[1][1])
		b.layer["dist.us_per_msg"] = 1000 * ratio(opMS, sum(b.counts["dist.msgs_delivered"]))
	}
	return nil
}

// ispCounters are the Network.Stats fields counted per op, by metric name.
var ispCounters = []string{"msgs_sent", "msgs_delivered", "derivations", "join_probes", "tuple_updates", "retractions", "route_changes"}

func statCounts(s dist.Stats) map[string]int {
	return map[string]int{
		"msgs_sent": s.MessagesSent, "msgs_delivered": s.MessagesDelivered, "msgs_dropped": s.MessagesDropped,
		"msgs_duplicated": s.MessagesDuplicated, "derivations": s.Derivations, "join_probes": s.JoinProbes,
		"tuple_updates": s.TupleUpdates, "retractions": s.Retractions, "route_changes": s.RouteChanges,
		"expirations": s.Expirations, "retransmits": s.Retransmits, "acks": s.Acks, "rel_giveups": s.RelGiveUps,
		"checkpoints": s.Checkpoints, "restores": s.Restores, "repair_pulls": s.RepairPulls,
	}
}

// ispSetup is one set-up repetition: generate the graph, analyze the
// program, build the network (default execution: batched executor,
// incremental deletion) and converge it.
func ispSetup(b *bench, prog *ndlog.Program, r int) (*dist.Network, error) {
	t, op := b.tr, -(r + 1)
	start := time.Now()
	root := t.start("setup", op, -1)
	defer t.stop(root)

	s := t.start("netgraph.gen", op, root)
	topo := netgraph.PreferentialAttachment(b.cfg.ispNodes, 2, b.seed)
	t.stop(s)

	s = t.start("ndlog.analyze", op, root)
	_, err := ndlog.Analyze(prog)
	t.stop(s)
	if err != nil {
		return nil, err
	}

	s = t.start("dist.new_network", op, root)
	net, err := dist.NewNetwork(prog, topo, dist.Options{MaxTime: 1_000_000, LoadTopologyLinks: true, Seed: b.seed})
	t.stop(s)
	if err != nil {
		return nil, err
	}
	net.Inject(0, ispRoot, "self", value.Tuple{value.Addr(ispRoot)})

	s = t.start("dist.converge", op, root)
	res, err := net.Run()
	t.stop(s)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("set-up %d: initial convergence did not quiesce", r)
	}
	b.setupDone(start)
	return net, nil
}

// ispCycle is one op: fail link l and run to quiescence (the failover
// latency), check the routes, restore the link and run again (the restore
// latency), check again. It returns the Stats delta of each half. The link
// is restored even when the failover check fails, so one wrong op does not
// leave the next ones a different topology.
func ispCycle(net *dist.Network, l ispLink, op int, t *tracer) (fail, restore float64, d [2]map[string]int, err error) {
	before := statCounts(net.Stats())
	fail, err = ispStep(net, t, op, "op.failover", func() { net.FailLink(net.Now()+1, l.a, l.b) })
	if err == nil {
		err = checkRoutes(net, t, op)
	}
	if err != nil {
		err = fmt.Errorf("after failing %s-%s: %w", l.a, l.b, err)
	}
	mid := statCounts(net.Stats())
	restore, err2 := ispStep(net, t, op, "op.restore", func() { net.RestoreLink(net.Now()+1, l.a, l.b, l.cost) })
	if err2 == nil {
		err2 = checkRoutes(net, t, op)
	}
	if err == nil && err2 != nil {
		err = fmt.Errorf("after restoring %s-%s: %w", l.a, l.b, err2)
	}
	return fail, restore, [2]map[string]int{delta(before, mid), delta(mid, statCounts(net.Stats()))}, err
}

func delta(before, after map[string]int) map[string]int {
	d := map[string]int{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ispStep times one topology change: schedule it, then Run to quiescence.
func ispStep(net *dist.Network, t *tracer, op int, name string, schedule func()) (float64, error) {
	start := time.Now()
	root := t.start(name, op, -1)
	s := t.start("dist.schedule", op, root)
	schedule()
	t.stop(s)
	s = t.start("dist.run", op, root)
	res, err := net.Run()
	t.stop(s)
	t.stop(root)
	elapsed := ms(time.Since(start))
	if err != nil {
		return elapsed, err
	}
	if !res.Converged {
		return elapsed, fmt.Errorf("run did not quiesce")
	}
	return elapsed, nil
}

// checkRoutes compares every node's b(node, n0) with Dijkstra over the live
// topology. It runs outside the timed op, under its own "check" root.
func checkRoutes(net *dist.Network, t *tracer, op int) error {
	root := t.start("check", op, -1)
	defer t.stop(root)
	s := t.start("netgraph.truth", op, root)
	truth := net.Topology().ShortestFrom(ispRoot)
	t.stop(s)
	s = t.start("dist.query", op, root)
	defer t.stop(s)
	bad, first := 0, ""
	for _, node := range net.Topology().Nodes {
		want, ok := truth[node]
		if !ok {
			return fmt.Errorf("%s unreachable in the live topology", node)
		}
		got := int64(-1)
		for _, tup := range net.Query(node, "b") {
			if tup[1].S == ispRoot {
				got = tup[2].I
			}
		}
		if got != want {
			if bad == 0 {
				first = fmt.Sprintf("b(%s,%s) = %d, want %d", node, ispRoot, got, want)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d nodes have a wrong best cost, first %s", bad, first)
	}
	return nil
}

// failableLinks returns up to k undirected links whose removal leaves the
// graph connected (non-bridges), in seeded order.
func failableLinks(topo *netgraph.Topology, seed uint64, k int) []ispLink {
	idx := map[string]int{}
	for i, n := range topo.Nodes {
		idx[n] = i
	}
	var edges [][2]int
	var costs []int64
	seen := map[[2]int]bool{}
	for _, l := range topo.Links {
		u, v := idx[l.Src], idx[l.Dst]
		e := [2]int{min(u, v), max(u, v)}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
			costs = append(costs, l.Cost)
		}
	}
	bridge := bridges(len(topo.Nodes), edges)
	var out []ispLink
	for i, e := range edges {
		if !bridge[i] {
			out = append(out, ispLink{topo.Nodes[e[0]], topo.Nodes[e[1]], costs[i]})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x15bf))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(k, len(out))]
}

// bridges marks the edges whose removal disconnects their component
// (Tarjan's low-link, iterative so long paths cannot overflow the stack).
func bridges(n int, edges [][2]int) []bool {
	adj := make([][]int, n) // node -> incident edge ids
	for i, e := range edges {
		adj[e[0]] = append(adj[e[0]], i)
		adj[e[1]] = append(adj[e[1]], i)
	}
	isBridge := make([]bool, len(edges))
	disc, low := make([]int, n), make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	type frame struct{ v, via, next int }
	clock := 0
	for s := 0; s < n; s++ {
		if disc[s] >= 0 {
			continue
		}
		disc[s], low[s] = clock, clock
		clock++
		stack := []frame{{s, -1, 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.v]) {
				e := adj[f.v][f.next]
				f.next++
				if e == f.via {
					continue
				}
				w := edges[e][0] + edges[e][1] - f.v
				if disc[w] < 0 {
					disc[w], low[w] = clock, clock
					clock++
					stack = append(stack, frame{w, e, 0})
				} else {
					low[f.v] = min(low[f.v], disc[w])
				}
				continue
			}
			top := *f
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				low[p.v] = min(low[p.v], low[top.v])
				if low[top.v] > disc[p.v] {
					isBridge[top.via] = true
				}
			}
		}
	}
	return isBridge
}
