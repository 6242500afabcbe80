package modelcheck

import "time"

// SeqCheckInvariant is the pre-fingerprinting reference checker: a
// single-threaded BFS over a visited set keyed by full Key() strings, with
// string-keyed parent and depth maps. It is the oracle of the
// sequential-vs-parallel equivalence tests. Verdict semantics match
// CheckInvariant exactly, including the cap-at-enqueue truncation rule.
func SeqCheckInvariant(sys System, inv func(State) bool, opts Options) Result {
	start := time.Now()
	max := opts.maxStates()

	visited := map[string]bool{}
	parent := map[string]string{}
	byKey := map[string]State{}
	var stats Stats

	// admit enforces the cap at enqueue: a duplicate never truncates, and
	// a cap equal to the exact reachable count is not a truncation.
	admit := func(s State, from string) (string, bool) {
		k := s.Key()
		if visited[k] {
			stats.DedupHits++
			return k, false
		}
		if len(visited) >= max {
			stats.Truncated = true
			return k, false
		}
		visited[k] = true
		parent[k] = from
		byKey[k] = s
		return k, true
	}

	traceTo := func(k string) []State {
		var rev []State
		for cur := k; cur != ""; cur = parent[cur] {
			rev = append(rev, byKey[cur])
		}
		out := make([]State, len(rev))
		for i := range rev {
			out[i] = rev[len(rev)-1-i]
		}
		return out
	}

	finish := func(res Result) Result {
		stats.StatesVisited = len(visited)
		stats.Elapsed = time.Since(start)
		res.Stats = stats
		publishStats(opts.Obs, stats)
		emitEnd(opts.Trace, res.Verdict, stats)
		return res
	}

	queue := []string{}
	depth := map[string]int{}
	for _, s := range sys.Initial() {
		k, fresh := admit(s, "")
		if !fresh {
			continue
		}
		if inv != nil && !inv(s) {
			return finish(Result{Verdict: VerdictViolated, Trace: traceTo(k)})
		}
		depth[k] = 0
		queue = append(queue, k)
	}

	for i := 0; i < len(queue); i++ {
		k := queue[i]
		d := depth[k]
		succs := sys.Next(byKey[k])
		stats.Transitions += len(succs)
		for _, t := range succs {
			tk, fresh := admit(t, k)
			if !fresh {
				continue
			}
			if inv != nil && !inv(t) {
				return finish(Result{Verdict: VerdictViolated, Trace: traceTo(tk)})
			}
			depth[tk] = d + 1
			if d+1 > stats.MaxDepth {
				stats.MaxDepth = d + 1
			}
			queue = append(queue, tk)
		}
		if live := len(queue) - i - 1; live > stats.FrontierPeak {
			stats.FrontierPeak = live
		}
	}

	if stats.Truncated {
		return finish(Result{Verdict: VerdictInconclusive})
	}
	return finish(Result{Verdict: VerdictHolds, Holds: true})
}

// SeqCountReachable is CountReachable on the reference checker.
func SeqCountReachable(sys System, opts Options) (int, Result) {
	res := SeqCheckInvariant(sys, nil, opts)
	return res.Stats.StatesVisited, res
}
