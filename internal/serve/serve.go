// Package serve is the fvn verification service: an HTTP/JSON front end
// that runs the toolchain's long-running checks — proof-obligation
// suites, model checking, chaos campaigns, and distributed executions —
// as jobs with per-request resource caps, a bounded admission queue with
// backpressure, streaming progress events, and a persistent cross-run
// proof cache (internal/cache) shared by every request of the process
// and, because the cache is a file, across restarts.
//
// Cancellation contract: every job runs under a context derived from
// the server's base context (cancelled at shutdown), the request's
// deadline (capped by MaxTimeout), and the client connection (a
// disconnect cancels the job). A cancelled job reports
// "cancelled": true with whatever partial statistics the underlying
// engine produced — never a fabricated verdict.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/linear"
	"repro/internal/modelcheck"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Options configures a Server. Zero values take the defaults noted on
// each field.
type Options struct {
	// CachePath is the file backing the verify-result cache shared by
	// every request and across restarts. Empty disables that cache: each
	// verify job then reuses results only among its own obligations.
	CachePath string
	// MaxConcurrent is the number of jobs allowed to execute at once
	// (default 8). Further admitted jobs wait in the queue.
	MaxConcurrent int
	// QueueDepth bounds the jobs waiting for an execution slot (default
	// 2×MaxConcurrent). Beyond it the server answers 429 with a
	// Retry-After header — backpressure instead of unbounded queuing.
	QueueDepth int
	// DefaultTimeout is the per-job wall-clock bound when the request
	// names none (default 60s); MaxTimeout caps what a request may ask
	// for (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxWorkers caps the per-job worker count (default NumCPU);
	// MaxStates caps a model-check request's state bound (default 1<<20);
	// MaxRuns caps a chaos request's campaign length (default 200).
	MaxWorkers int
	MaxStates  int
	MaxRuns    int
}

func (o *Options) fill() {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.MaxConcurrent
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.NumCPU()
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 1 << 20
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 200
	}
}

// Server is the verification service. Create with New, mount Handler on
// an http.Server, and call Shutdown to drain.
type Server struct {
	opts  Options
	cache *cache.Store

	baseCtx    context.Context
	baseCancel context.CancelFunc
	closed     atomic.Bool

	sem     chan struct{} // execution slots
	waiting atomic.Int64  // jobs admitted but queued
	jobs    sync.WaitGroup
	jobID   atomic.Int64
	mux     *http.ServeMux

	// durMu guards durs, a ring of the most recent job wall-clock times.
	// Their mean drives the Retry-After estimate on 429 responses.
	durMu sync.Mutex
	durs  []time.Duration
	durAt int

	// Self-healing counters accumulated across chaos jobs that ran with
	// the reliability layer; /statusz reports them once nonzero.
	retransmits atomic.Int64
	checkpoints atomic.Int64
	restores    atomic.Int64
	repairPulls atomic.Int64
	relGiveUps  atomic.Int64
}

// New builds a Server, opening (or creating) the persistent cache when
// Options.CachePath is set.
func New(opts Options) (*Server, error) {
	opts.fill()
	var store *cache.Store
	if opts.CachePath != "" {
		var err error
		if store, err = cache.Open(opts.CachePath); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		cache:      store,
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, opts.MaxConcurrent),
		mux:        http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /verify", s.job("verify", s.runVerify))
	s.mux.HandleFunc("POST /mc", s.job("mc", s.runMC))
	s.mux.HandleFunc("POST /chaos", s.job("chaos", s.runChaos))
	s.mux.HandleFunc("POST /run", s.job("run", s.runExec))
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /statusz", s.statusz)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the persistent store (nil when CachePath was empty) —
// tests assert hit counts through it.
func (s *Server) Cache() *cache.Store { return s.cache }

// Shutdown gracefully drains the server: new jobs are rejected with 503,
// the base context is cancelled so in-flight jobs stop and write their
// partial (cancelled) responses, and the call waits — bounded by ctx —
// for every job to finish before closing the cache.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.baseCancel()
	done := make(chan struct{})
	go func() { s.jobs.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", context.Cause(ctx))
	}
	return s.cache.Close()
}

// --- admission and job plumbing ---------------------------------------------

// admit acquires an execution slot, queuing up to QueueDepth jobs.
// It replies 429 (+Retry-After) on overload and 503 during shutdown,
// returning ok=false; on success the caller must invoke release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.closed.Load() {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return nil, false
	}
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, true
	default:
	}
	// All slots busy: join the bounded wait queue.
	if s.waiting.Add(1) > int64(s.opts.QueueDepth) {
		s.waiting.Add(-1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
		return nil, false
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, true
	case <-s.baseCtx.Done():
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return nil, false
	case <-r.Context().Done():
		return nil, false // client gave up while queued
	}
}

// recordDuration feeds a completed job's wall-clock time into the
// bounded ring the Retry-After estimate averages over.
func (s *Server) recordDuration(d time.Duration) {
	const window = 32
	s.durMu.Lock()
	if len(s.durs) < window {
		s.durs = append(s.durs, d)
	} else {
		s.durs[s.durAt%window] = d
	}
	s.durAt++
	s.durMu.Unlock()
}

// meanJobDur is the mean of the recent-duration window (0 with no
// completed jobs yet).
func (s *Server) meanJobDur() time.Duration {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	if len(s.durs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.durs {
		sum += d
	}
	return sum / time.Duration(len(s.durs))
}

// retryAfter estimates, in whole seconds, when an execution slot should
// free up for a rejected client: the jobs ahead of it (running plus
// queued) drain in waves of MaxConcurrent, each wave taking roughly the
// mean recent job duration. Before any job has completed it falls back
// to the default per-job timeout; either way the hint is capped at
// MaxTimeout, the longest any single job may run.
func (s *Server) retryAfter() int {
	mean := s.meanJobDur()
	if mean <= 0 {
		return int(s.opts.DefaultTimeout/time.Second) + 1
	}
	ahead := int64(len(s.sem)) + s.waiting.Load()
	waves := (ahead + int64(s.opts.MaxConcurrent) - 1) / int64(s.opts.MaxConcurrent)
	if waves < 1 {
		waves = 1
	}
	est := time.Duration(waves) * mean
	if est > s.opts.MaxTimeout {
		est = s.opts.MaxTimeout
	}
	return int(est/time.Second) + 1
}

// request is the common job envelope; endpoint-specific fields ride
// alongside it in each handler's own struct.
type request struct {
	// TimeoutMS bounds the job's wall clock (0: server default; capped
	// at MaxTimeout).
	TimeoutMS int `json:"timeout_ms"`
	// Workers caps in-job parallelism (0: 1 for verify, NumCPU for mc;
	// capped at MaxWorkers).
	Workers int `json:"workers"`
	// Stream switches the response to JSONL: trace events as they
	// happen, then one final result line (also ?stream=1).
	Stream bool `json:"stream"`
}

func (s *Server) clampWorkers(n, def int) int {
	if n <= 0 {
		n = def
	}
	return min(n, s.opts.MaxWorkers)
}

// jobCtx derives the job's context: server base (shutdown), request
// deadline (capped), client disconnect.
func (s *Server) jobCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	d = min(d, s.opts.MaxTimeout)
	ctx, cancel := context.WithTimeout(s.baseCtx, d)
	stop := context.AfterFunc(r.Context(), cancel)
	return ctx, func() { stop(); cancel() }
}

// streamSink is an obs.Sink that writes each trace event as one JSON
// line and flushes it immediately, so clients see progress while the
// job runs. It reuses the obs event schema; the final result line is
// distinguished by its own shape (no "kind" event field).
type streamSink struct {
	mu sync.Mutex
	w  http.ResponseWriter
	f  http.Flusher
}

func (ss *streamSink) Emit(ev obs.Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	ss.mu.Lock()
	ss.w.Write(append(b, '\n'))
	if ss.f != nil {
		ss.f.Flush()
	}
	ss.mu.Unlock()
}

func (ss *streamSink) Close() error { return nil }

// runner executes one decoded job under ctx; tracer is non-nil only in
// streaming mode. It returns the JSON-marshalable result payload.
type runner func(ctx context.Context, body []byte, workers int, tracer *obs.Tracer) (any, error)

// job wraps a runner with the shared lifecycle: admission, context
// derivation, streaming setup, and the response envelope. A runner that
// panics is answered 500 (in stream mode, a final error line) with its
// stack logged, instead of a dropped connection.
func (s *Server) job(kind string, run runner) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		s.jobs.Add(1)
		defer s.jobs.Done()

		var req request
		body := make([]byte, 0)
		if r.Body != nil {
			b, err := readBody(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			body = b
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if r.URL.Query().Get("stream") == "1" {
			req.Stream = true
		}
		ctx, cancel := s.jobCtx(r, req.TimeoutMS)
		defer cancel()

		var tracer *obs.Tracer
		if req.Stream {
			w.Header().Set("Content-Type", "application/x-ndjson")
			f, _ := w.(http.Flusher)
			tracer = obs.NewTracer(&streamSink{w: w, f: f})
		} else {
			w.Header().Set("Content-Type", "application/json")
		}

		id := s.jobID.Add(1)
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			log.Printf("serve: %s job %d panicked: %v\n%s", kind, id, p, debug.Stack())
			msg := fmt.Sprintf("%s job panicked: %v", kind, p)
			if req.Stream {
				writeJSONLine(w, map[string]any{"job": id, "kind": kind, "error": msg})
				return
			}
			http.Error(w, msg, http.StatusInternalServerError)
		}()
		start := time.Now()
		payload, err := run(ctx, body, req.Workers, tracer)
		if err == nil {
			// Only real executions feed the Retry-After estimate; decode
			// failures return in microseconds and would drag the mean down.
			s.recordDuration(time.Since(start))
		}
		if err != nil {
			if req.Stream {
				// Headers are gone; report the failure as the final line.
				writeJSONLine(w, map[string]any{"job": id, "kind": kind, "error": err.Error()})
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		env := map[string]any{
			"job":        id,
			"kind":       kind,
			"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
			"result":     payload,
		}
		if ctx.Err() != nil {
			env["cancelled"] = true
		}
		if req.Stream {
			writeJSONLine(w, env)
			return
		}
		b, _ := json.MarshalIndent(env, "", "  ")
		w.Write(append(b, '\n'))
	}
}

func writeJSONLine(w http.ResponseWriter, v any) {
	b, _ := json.Marshal(v)
	w.Write(append(b, '\n'))
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func readBody(r *http.Request) ([]byte, error) {
	const maxBody = 1 << 20
	b, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	if len(b) > maxBody {
		return nil, fmt.Errorf("request body over %d bytes", maxBody)
	}
	return b, nil
}

// --- endpoint runners --------------------------------------------------------

// verifyRequest: POST /verify runs the standard proof-obligation suite
// through the parallel pipeline, backed by the server's shared
// persistent cache.
type verifyRequest struct {
	request
	// Cache disables result reuse when explicitly false.
	Cache *bool `json:"cache"`
}

type verifyResult struct {
	Obligations int  `json:"obligations"`
	Proved      int  `json:"proved"`
	Failed      int  `json:"failed"`
	CachedN     int  `json:"cached"`
	Cancelled   bool `json:"cancelled,omitempty"`
	// Open names the obligations not proved (failed or cancelled).
	Open []string `json:"open,omitempty"`
}

func (s *Server) runVerify(ctx context.Context, body []byte, workers int, tracer *obs.Tracer) (any, error) {
	var req verifyRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad verify request: %w", err)
		}
	}
	obls, err := verify.StandardSuite()
	if err != nil {
		return nil, err
	}
	opts := verify.Options{
		Workers: s.clampWorkers(workers, 1),
		Cache:   req.Cache == nil || *req.Cache,
		Tracer:  tracer,
	}
	if opts.Cache {
		opts.Persist = s.cache
	}
	rep := verify.NewPipeline(opts).Run(ctx, obls)
	res := verifyResult{
		Obligations: len(rep.Results),
		Proved:      rep.Proved(),
		Failed:      rep.Failed(),
		CachedN:     rep.Cached(),
		Cancelled:   rep.Cancelled,
	}
	for _, r := range rep.Results {
		if !r.Proved {
			res.Open = append(res.Open, r.Name)
		}
	}
	return res, nil
}

// mcRequest: POST /mc counts the reachable states of the program's
// transition system and checks quiescence.
type mcRequest struct {
	request
	// Src is NDlog source (default: the paper's path-vector protocol).
	Src string `json:"src"`
	// MaxStates caps the search (0: 1<<16; capped at the server limit).
	MaxStates int `json:"max_states"`
}

type mcResult struct {
	Reachable   int    `json:"reachable"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`
	Truncated   bool   `json:"truncated,omitempty"`
	Cancelled   bool   `json:"cancelled,omitempty"`
	Quiescence  string `json:"quiescence"`
}

func (s *Server) runMC(ctx context.Context, body []byte, workers int, tracer *obs.Tracer) (any, error) {
	var req mcRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad mc request: %w", err)
		}
	}
	src := req.Src
	if src == "" {
		src = core.PathVectorSrc
	}
	p, err := core.FromNDlog("serve", src)
	if err != nil {
		return nil, err
	}
	sys, err := p.TransitionSystem(nil)
	if err != nil {
		return nil, err
	}
	maxStates := req.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	maxStates = min(maxStates, s.opts.MaxStates)
	opts := modelcheck.Options{
		MaxStates: maxStates,
		Workers:   s.clampWorkers(workers, runtime.NumCPU()),
		Trace:     tracer,
	}
	ts := linear.TS{Sys: sys}
	count, cres := modelcheck.CountReachable(ctx, ts, opts)
	res := mcResult{
		Reachable:   count,
		Transitions: cres.Stats.Transitions,
		Depth:       cres.Stats.MaxDepth,
		Truncated:   cres.Stats.Truncated,
		Cancelled:   cres.Stats.Cancelled,
	}
	if res.Cancelled || res.Truncated {
		res.Quiescence = "inconclusive"
		return res, nil
	}
	q := modelcheck.Quiescent(ctx, ts, opts)
	res.Quiescence = q.Verdict.String()
	res.Cancelled = q.Stats.Cancelled
	return res, nil
}

// chaosRequest: POST /chaos runs a seeded fault campaign and reports
// invariant outcomes per run.
type chaosRequest struct {
	request
	Src  string `json:"src"`  // NDlog source (default path-vector)
	Topo string `json:"topo"` // e.g. "ring:6" (default ring:6)
	Runs int    `json:"runs"` // campaign length (default 5; capped)
	Seed uint64 `json:"seed"` // base seed (default 1)
	Hard bool   `json:"hard"` // skip the soft-state rewrite
	// Self-healing layer: ack/retransmit channels, periodic base-table
	// checkpoints (time units; 0 off), and anti-entropy repair.
	Reliable        bool    `json:"reliable"`
	CheckpointEvery float64 `json:"checkpoint_every"`
	AntiEntropy     bool    `json:"anti_entropy"`
}

type chaosResult struct {
	Runs      int      `json:"runs"`     // completed (cancelled partials excluded)
	Failures  int      `json:"failures"` // runs with invariant violations
	Cancelled bool     `json:"cancelled,omitempty"`
	Seeds     []uint64 `json:"failing_seeds,omitempty"`
	// Recovery is the campaign-wide restart-recovery percentile summary;
	// present only when runs measured recovery (self-healing on).
	Recovery *dist.RecoveryStats `json:"recovery_ms,omitempty"`
}

func (s *Server) runChaos(ctx context.Context, body []byte, workers int, tracer *obs.Tracer) (any, error) {
	var req chaosRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad chaos request: %w", err)
		}
	}
	src := req.Src
	if src == "" {
		src = core.PathVectorSrc
	}
	topoSpec := req.Topo
	if topoSpec == "" {
		topoSpec = "ring:6"
	}
	mk, err := topoBuilder(topoSpec)
	if err != nil {
		return nil, err
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 5
	}
	runs = min(runs, s.opts.MaxRuns)
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	opts := dist.DefaultChaosOptions()
	opts.Hard = req.Hard
	opts.Reliable = req.Reliable
	opts.CheckpointEvery = req.CheckpointEvery
	opts.AntiEntropy = req.AntiEntropy
	opts.Trace = tracer
	c := &dist.Campaign{
		Source:   src,
		Topo:     mk,
		Runs:     runs,
		BaseSeed: seed,
		Gen:      faults.DefaultGenOptions(),
		Opts:     opts,
	}
	reports, err := c.Execute(ctx, nil)
	if err != nil {
		return nil, err
	}
	res := chaosResult{Cancelled: len(reports) < runs}
	for _, rep := range reports {
		if rep.Cancelled {
			res.Cancelled = true
			continue
		}
		res.Runs++
		if rep.Failed() {
			res.Failures++
			res.Seeds = append(res.Seeds, rep.Seed)
		}
		s.retransmits.Add(int64(rep.Stats.Retransmits))
		s.checkpoints.Add(int64(rep.Stats.Checkpoints))
		s.restores.Add(int64(rep.Stats.Restores))
		s.repairPulls.Add(int64(rep.Stats.RepairPulls))
		s.relGiveUps.Add(int64(rep.Stats.RelGiveUps))
	}
	res.Recovery = dist.RecoveryPercentiles(reports)
	return res, nil
}

// execRequest: POST /run executes the program on a topology and reports
// convergence.
type execRequest struct {
	request
	Src     string  `json:"src"`
	Topo    string  `json:"topo"`     // default ring:5
	MaxTime float64 `json:"max_time"` // simulated-time bound (default 10000)
	Seed    uint64  `json:"seed"`
	Loss    float64 `json:"loss"` // per-link loss rate of the default fault channel
}

type execResult struct {
	Converged bool    `json:"converged"`
	Cancelled bool    `json:"cancelled,omitempty"`
	Time      float64 `json:"time"`
	Messages  int     `json:"messages"`
	Routes    int     `json:"route_changes"`
}

func (s *Server) runExec(ctx context.Context, body []byte, workers int, tracer *obs.Tracer) (any, error) {
	var req execRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("bad run request: %w", err)
		}
	}
	src := req.Src
	if src == "" {
		src = core.PathVectorSrc
	}
	topoSpec := req.Topo
	if topoSpec == "" {
		topoSpec = "ring:5"
	}
	mk, err := topoBuilder(topoSpec)
	if err != nil {
		return nil, err
	}
	p, err := core.FromNDlog("serve", src)
	if err != nil {
		return nil, err
	}
	maxTime := req.MaxTime
	if maxTime <= 0 {
		maxTime = 10000
	}
	net, err := p.Execute(mk(), dist.Options{
		MaxTime:           maxTime,
		Seed:              req.Seed,
		LoadTopologyLinks: true,
		Trace:             tracer,
	})
	if err != nil {
		return nil, err
	}
	if err := net.ApplyPlan(&faults.Plan{Default: faults.Channel{Loss: req.Loss}}); err != nil {
		return nil, err
	}
	r, err := net.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	return execResult{
		Converged: r.Converged,
		Cancelled: r.Cancelled,
		Time:      r.Time,
		Messages:  r.Stats.MessagesSent,
		Routes:    r.Stats.RouteChanges,
	}, nil
}

// Bounds on a request's topology, checked before anything is built: the
// benchmark's largest graph has 10^4 nodes.
const (
	maxTopoNodes = 10_000
	maxTopoLinks = 100_000
)

// topoBuilder parses a topology spec like ring:6 into a fresh-topology
// constructor (each chaos run mutates its own copy), refusing a graph
// that could exceed the request bounds.
func topoBuilder(spec string) (func() *netgraph.Topology, error) {
	s, err := netgraph.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if s.Nodes > maxTopoNodes || s.Links > maxTopoLinks {
		return nil, fmt.Errorf("topology %s has %d nodes and up to %d links; requests are bounded to %d and %d",
			spec, s.Nodes, s.Links, maxTopoNodes, maxTopoLinks)
	}
	return s.Build, nil
}

// --- health and status -------------------------------------------------------

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) statusz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	env := map[string]any{
		"active":  len(s.sem),
		"waiting": s.waiting.Load(),
		"slots":   s.opts.MaxConcurrent,
		"queue":   s.opts.QueueDepth,
		"jobs":    s.jobID.Load(),
		"cache": map[string]any{
			"path":    s.cache.Path(),
			"entries": st.Entries,
			"hits":    st.Hits,
			"misses":  st.Misses,
			"corrupt": st.Corrupt,
		},
	}
	if mean := s.meanJobDur(); mean > 0 {
		env["mean_job_ms"] = float64(mean) / float64(time.Millisecond)
	}
	// Self-healing counters appear once a chaos job has exercised the
	// reliability layer; absent (not zero) before that.
	if s.retransmits.Load()+s.checkpoints.Load()+s.restores.Load()+s.repairPulls.Load() > 0 {
		env["selfheal"] = map[string]any{
			"retransmits":  s.retransmits.Load(),
			"checkpoints":  s.checkpoints.Load(),
			"restores":     s.restores.Load(),
			"repair_pulls": s.repairPulls.Load(),
			"give_ups":     s.relGiveUps.Load(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(env, "", "  ")
	w.Write(append(b, '\n'))
}
