// Package verify is the unified proof-obligation pipeline of the FVN
// verification stack (arcs 4–6 of Figure 1): it collects named proof
// obligations from the three producers — translate (NDlog→inductive-
// definition theories), metarouting (algebra laws), and component
// (property-preservation checks) — and discharges them on a worker pool
// with a result cache keyed by structural goal hash plus theory
// fingerprint, so identical obligations (shared algebra laws across
// composed algebras, repeated goals across suites) are proved once.
package verify

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/prover"
)

// Obligation is one named unit of verification work. Exactly one of the
// two payloads is set:
//
//   - a theorem obligation carries a Theory, a Theorem name, and a proof
//     Script (empty = "(skosimp*) (grind)");
//   - a check obligation carries a Check function (e.g. a metarouting
//     algebra law) plus a CheckKey identifying it for the cache.
type Obligation struct {
	Name string

	Theory  *logic.Theory
	Theorem string
	Script  string

	Check    func() error
	CheckKey string
}

// Result is the outcome of one obligation.
type Result struct {
	Name      string
	Proved    bool
	Cached    bool // satisfied by the result cache, not a fresh proof
	Cancelled bool // context fired before (or while) this obligation ran
	Err       string
	Steps     int
	PrimSteps int
	AutoPrim  int
	Elapsed   time.Duration
}

// Report is the outcome of a pipeline run, results in input order.
type Report struct {
	Results []Result
	Elapsed time.Duration
	// Cancelled marks a run cut short by its context: every obligation
	// still has a Result (completed ones are real, the rest are marked
	// Cancelled), but the report is partial, not a verdict on the suite.
	Cancelled bool
}

// Proved counts discharged obligations (including cached ones).
func (r Report) Proved() int {
	n := 0
	for _, res := range r.Results {
		if res.Proved {
			n++
		}
	}
	return n
}

// Cached counts obligations satisfied from the result cache.
func (r Report) Cached() int {
	n := 0
	for _, res := range r.Results {
		if res.Cached {
			n++
		}
	}
	return n
}

// Failed counts undischarged obligations.
func (r Report) Failed() int { return len(r.Results) - r.Proved() }

// AllProved reports whether every obligation was discharged.
func (r Report) AllProved() bool { return r.Failed() == 0 }

// WriteTable renders the per-obligation results.
func (r Report) WriteTable(w io.Writer) {
	for _, res := range r.Results {
		status := "proved"
		if res.Cancelled {
			status = "cancelled"
		} else if !res.Proved {
			status = "FAILED"
		}
		cached := ""
		if res.Cached {
			cached = " (cached)"
		}
		fmt.Fprintf(w, "  %-52s %s%s  steps=%d prim=%d  %v\n",
			res.Name, status, cached, res.Steps, res.PrimSteps, res.Elapsed.Round(time.Microsecond))
		if res.Err != "" {
			fmt.Fprintf(w, "      %s\n", res.Err)
		}
	}
	fmt.Fprintf(w, "  %d obligations: %d proved (%d cached), %d failed, %v\n",
		len(r.Results), r.Proved(), r.Cached(), r.Failed(), r.Elapsed.Round(time.Microsecond))
}

// Options configures a Pipeline.
type Options struct {
	// Workers bounds concurrent obligation discharge (<=1 = sequential).
	Workers int
	// Cache enables the cross-obligation result cache. Identical
	// obligations — same theory fingerprint, structural goal hash, and
	// script — are proved once; later ones replay the recorded verdict and
	// step counts.
	Cache bool
	// Persist, when non-nil, backs the result cache with a persistent
	// store shared across pipelines, requests, and processes (see
	// internal/cache). Setting it implies Cache. Cancelled results are
	// never persisted.
	Persist *cache.Store

	// Observability (optional): obligation counters land in component
	// "verify"; per-obligation durations in the MObligationMs histogram.
	Col *obs.Collector
	// Tracer receives per-tactic proof events. Only attached when
	// Workers <= 1 (trace sinks are not synchronized).
	Tracer *obs.Tracer
}

// Pipeline discharges obligations. The result cache persists across Run
// calls, so a second Run over an overlapping suite replays prior proofs.
type Pipeline struct {
	opts Options

	mu   sync.Mutex
	thms map[thmKey]Result
	chks map[string]Result
}

type thmKey struct {
	theory uint64 // logic.TheoryFingerprint
	goal   uint64 // logic.FormulaHash of the goal
	script uint64
}

// NewPipeline creates a pipeline with the given options.
func NewPipeline(opts Options) *Pipeline {
	if opts.Persist != nil {
		opts.Cache = true
	}
	return &Pipeline{opts: opts, thms: map[thmKey]Result{}, chks: map[string]Result{}}
}

// DefaultScript is the automation fallback for theorem obligations without
// an explicit proof script.
const DefaultScript = "(skosimp*) (grind)"

// Run discharges the obligations and returns their results in input order.
// Scheduling cannot change results: duplicate obligations are grouped
// before the pool starts (the first occurrence proves, the rest replay),
// and each proof is a deterministic function of its obligation.
//
// ctx bounds the run. On cancellation the pool drains: every worker exits
// after its current obligation reaches the next coarse boundary (script
// command / grind sub-goal), no goroutine outlives Run, and the report
// comes back partial — completed results intact, the remainder marked
// Cancelled — with Report.Cancelled set. Cancelled results are never
// cached or persisted.
func (pl *Pipeline) Run(ctx context.Context, obls []Obligation) Report {
	start := time.Now()
	results := make([]Result, len(obls))
	var run []int // indices that need a fresh proof
	// rep[i] >= 0 marks i a duplicate of the earlier index rep[i].
	rep := make([]int, len(obls))
	if pl.opts.Cache {
		group := map[interface{}]int{}
		for i, ob := range obls {
			key := pl.key(ob)
			if key == nil {
				rep[i] = -1
				run = append(run, i)
				continue
			}
			if cached, ok := pl.cacheGet(key); ok {
				rep[i] = -1
				results[i] = replay(cached, ob.Name)
				continue
			}
			if j, ok := group[key]; ok {
				rep[i] = j
				continue
			}
			group[key] = i
			rep[i] = -1
			run = append(run, i)
		}
	} else {
		for i := range obls {
			rep[i] = -1
			run = append(run, i)
		}
	}

	// Discharge the fresh obligations on the pool.
	workers := pl.opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(run) {
		workers = len(run)
	}
	if workers <= 1 {
		for _, i := range run {
			results[i] = pl.run1(ctx, obls[i])
		}
	} else {
		// Every index is sent regardless of cancellation and every worker
		// drains the channel: run1 short-circuits on a fired context, so a
		// cancelled run completes the dispatch loop in microseconds with
		// all workers joined — no goroutine leaks, no unfilled results.
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = pl.run1(ctx, obls[i])
				}
			}()
		}
		for _, i := range run {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Store fresh results in the cache and replay duplicates. A duplicate
	// of a cancelled first occurrence is itself cancelled, not cached.
	if pl.opts.Cache {
		for _, i := range run {
			if results[i].Cancelled {
				continue
			}
			if key := pl.key(obls[i]); key != nil {
				pl.cachePut(key, results[i])
			}
		}
		for i := range obls {
			if j := rep[i]; j >= 0 {
				results[i] = replay(results[j], obls[i].Name)
			}
		}
	}

	if c := pl.opts.Col; c != nil {
		var cached, failed int64
		for _, res := range results {
			if res.Cached {
				cached++
			}
			if !res.Proved {
				failed++
			}
			c.Histogram("verify", obs.MObligationMs, res.Name).Observe(res.Elapsed)
		}
		c.Counter("verify", obs.MObligations, "").Add(int64(len(results)))
		c.Counter("verify", obs.MObligationsCached, "").Add(cached)
		c.Counter("verify", obs.MObligationsFailed, "").Add(failed)
	}

	rep2 := Report{Results: results, Elapsed: time.Since(start)}
	for _, res := range results {
		if res.Cancelled {
			rep2.Cancelled = true
			break
		}
	}
	return rep2
}

// replay turns a proved-once result into the duplicate's: same verdict and
// step counts (exactly what re-proving would have produced), marked Cached.
// A cancelled first occurrence propagates as cancelled, not cached.
func replay(src Result, name string) Result {
	src.Name = name
	src.Elapsed = 0
	if !src.Cancelled {
		src.Cached = true
	}
	return src
}

// key computes the cache identity of an obligation, or nil when it has
// none. Theorem keys combine the theory fingerprint (inductives + axioms),
// the structural goal hash, and the script hash. All three are functions
// of content alone, so every process derives the same key for the same
// obligation. They are 64-bit hashes, not proofs of identity: two distinct
// obligations share a key only if their hashes collide, and then the later
// one would replay the earlier one's result.
func (pl *Pipeline) key(ob Obligation) interface{} {
	if ob.Check != nil {
		if ob.CheckKey == "" {
			return nil
		}
		return ob.CheckKey
	}
	if ob.Theory == nil {
		return nil
	}
	thm, ok := ob.Theory.TheoremByName(ob.Theorem)
	if !ok {
		return nil
	}
	goal := logic.FormulaHash(thm.Goal)
	script := ob.Script
	if script == "" {
		script = DefaultScript
	}
	var sh uint64 = 14695981039346656037
	for i := 0; i < len(script); i++ {
		sh ^= uint64(script[i])
		sh *= 1099511628211
	}
	return thmKey{theory: logic.TheoryFingerprint(ob.Theory), goal: goal, script: sh}
}

// persistKey renders a cache key for the persistent store. Theorem keys
// carry the theory fingerprint, structural goal hash, and script hash;
// check keys are namespaced verbatim.
func persistKey(key interface{}) string {
	switch k := key.(type) {
	case thmKey:
		return fmt.Sprintf("thm1:%016x:%016x:%016x", k.theory, k.goal, k.script)
	case string:
		return "chk1:" + k
	}
	return ""
}

// persisted is the durable subset of a Result: identity-independent proof
// outcome and step counts. Name and Elapsed are per-occurrence.
type persisted struct {
	Proved    bool   `json:"proved"`
	Err       string `json:"err,omitempty"`
	Steps     int    `json:"steps,omitempty"`
	PrimSteps int    `json:"prim,omitempty"`
	AutoPrim  int    `json:"auto,omitempty"`
}

func (pl *Pipeline) cacheGet(key interface{}) (Result, bool) {
	pl.mu.Lock()
	switch k := key.(type) {
	case thmKey:
		if r, ok := pl.thms[k]; ok {
			pl.mu.Unlock()
			return r, true
		}
	case string:
		if r, ok := pl.chks[k]; ok {
			pl.mu.Unlock()
			return r, true
		}
	}
	pl.mu.Unlock()
	// Fall through to the persistent store (its own lock): a hit is
	// promoted into the in-memory maps so repeats stay map lookups.
	if pl.opts.Persist == nil {
		return Result{}, false
	}
	var pv persisted
	if !pl.opts.Persist.Get(persistKey(key), &pv) {
		return Result{}, false
	}
	r := Result{
		Proved:    pv.Proved,
		Err:       pv.Err,
		Steps:     pv.Steps,
		PrimSteps: pv.PrimSteps,
		AutoPrim:  pv.AutoPrim,
	}
	pl.mu.Lock()
	switch k := key.(type) {
	case thmKey:
		pl.thms[k] = r
	case string:
		pl.chks[k] = r
	}
	pl.mu.Unlock()
	return r, true
}

func (pl *Pipeline) cachePut(key interface{}, r Result) {
	pl.mu.Lock()
	switch k := key.(type) {
	case thmKey:
		pl.thms[k] = r
	case string:
		pl.chks[k] = r
	}
	pl.mu.Unlock()
	if pl.opts.Persist != nil {
		// Append errors do not fail the proof: the result is still correct,
		// the entry is just not durable.
		_ = pl.opts.Persist.Put(persistKey(key), persisted{
			Proved:    r.Proved,
			Err:       r.Err,
			Steps:     r.Steps,
			PrimSteps: r.PrimSteps,
			AutoPrim:  r.AutoPrim,
		})
	}
}

// run1 discharges one obligation from scratch. A context that has already
// fired short-circuits to a Cancelled result; one that fires mid-proof
// stops the script at its next command/sub-goal boundary.
func (pl *Pipeline) run1(ctx context.Context, ob Obligation) Result {
	t0 := time.Now()
	if ctx.Err() != nil {
		return Result{Name: ob.Name, Cancelled: true, Err: "cancelled"}
	}
	if ob.Check != nil {
		err := ob.Check()
		res := Result{Name: ob.Name, Proved: err == nil, Elapsed: time.Since(t0)}
		if err != nil {
			res.Err = err.Error()
		}
		return res
	}

	p, err := prover.New(ob.Theory, ob.Theorem)
	if err != nil {
		return Result{Name: ob.Name, Err: err.Error(), Elapsed: time.Since(t0)}
	}
	tr := pl.opts.Tracer
	if pl.opts.Workers > 1 {
		tr = nil
	}
	if pl.opts.Col != nil || tr != nil {
		p.Instrument(pl.opts.Col, tr)
	}
	script := ob.Script
	if script == "" {
		script = DefaultScript
	}
	runErr := p.RunScriptCtx(ctx, script)
	sum := p.Summary()
	res := Result{
		Name:      ob.Name,
		Proved:    runErr == nil && sum.QED,
		Steps:     sum.Steps,
		PrimSteps: sum.PrimSteps,
		AutoPrim:  sum.AutoPrim,
		Elapsed:   time.Since(t0),
	}
	if ctx.Err() != nil && !sum.QED {
		// The context fired while this obligation ran: its non-QED outcome
		// reflects interruption, not a refuted goal.
		res.Cancelled = true
		res.Proved = false
		res.Err = "cancelled"
		return res
	}
	if runErr != nil {
		res.Err = runErr.Error()
	} else if !sum.QED {
		res.Err = fmt.Sprintf("%d goals remain open", sum.OpenGoals)
	}
	return res
}
