package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/verify"
)

var (
	errRefused = errors.New("refused with 429")
	errWrong   = errors.New("wrong result")
)

// verifyServer is serve.New in the shipped fvn serve configuration (a
// persistent cache file, default limits) on a loopback listener.
type verifyServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	dir  string
	errc chan error
}

func startServer(workdir string) (*verifyServer, error) {
	dir, err := os.MkdirTemp(workdir, "verify-serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{CachePath: filepath.Join(dir, "cache.jsonl")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	v := &verifyServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		dir: dir, errc: make(chan error, 1)}
	go func() { v.errc <- v.hs.Serve(ln) }()
	return v, nil
}

// stop drains the server as fvn serve does on SIGTERM, waits for its
// goroutine, and removes the cache file.
func (v *verifyServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := v.srv.Shutdown(ctx)
	if e := v.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-v.errc; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	if e := os.RemoveAll(v.dir); err == nil {
		err = e
	}
	return err
}

type verifyReply struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Cancelled bool    `json:"cancelled"`
	Result    struct {
		Obligations int  `json:"obligations"`
		Proved      int  `json:"proved"`
		Failed      int  `json:"failed"`
		Cached      int  `json:"cached"`
		Cancelled   bool `json:"cancelled"`
	} `json:"result"`
}

// verify posts one /verify job: a resubmission of the standard suite, or
// with cold set a full proof ({"cache": false}). It applies the pass rule:
// HTTP 200, every obligation proved, none failed, not cancelled.
func (v *verifyServer) verify(c *http.Client, cold bool) (verifyReply, error) {
	var r verifyReply
	body := `{}`
	if cold {
		body = `{"cache": false}`
	}
	resp, err := c.Post(v.url+"/verify", "application/json", strings.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return r, err
	case resp.StatusCode == http.StatusTooManyRequests:
		return r, errRefused
	case resp.StatusCode != http.StatusOK:
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%w: undecodable reply: %v", errWrong, err)
	}
	res := r.Result
	switch {
	case r.Cancelled || res.Cancelled:
		return r, fmt.Errorf("job cancelled")
	case res.Obligations == 0 || res.Proved != res.Obligations || res.Failed != 0:
		return r, fmt.Errorf("%w: %d of %d obligations proved, %d failed", errWrong, res.Proved, res.Obligations, res.Failed)
	}
	return r, nil
}

// coldRequests marks one request in every block of `every` consecutive
// requests, at a seeded position, as a cache:false proof.
func coldRequests(seed uint64, n, every int) []bool {
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	cold := make([]bool, n)
	for blk := 0; blk < n; blk += every {
		if i := blk + rng.IntN(every); i < n {
			cold[i] = true
		}
	}
	return cold
}

// runVerifyServe drives the verification service with an open loop of
// /verify jobs: seeded Poisson arrivals at a fixed rate well below
// capacity, one client process, at most nproc connections. Set-up starts
// the server and fills its cache with one warm-up job. A traced run then
// replays the server's verify path outside the load phase to time its
// layers.
func runVerifyServe(b *bench) error {
	conns := runtime.NumCPU()
	client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()

	var (
		srv *verifyServer
		ref map[string]int
	)
	for r := 0; r < b.cfg.setupReps; r++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		start, op := time.Now(), -(r + 1)
		root := b.tr.start("setup", op, -1)
		s := b.tr.start("serve.new", op, root)
		var err error
		srv, err = startServer(b.workdir)
		b.tr.stop(s)
		if err != nil {
			return err
		}
		s = b.tr.start("serve.warm_up", op, root)
		reply, err := srv.verify(client, false)
		b.tr.stop(s)
		b.tr.stop(root)
		b.setupDone(start)
		if err != nil {
			srv.stop()
			return fmt.Errorf("warm-up /verify: %w", err)
		}
		got := map[string]int{"obligations": reply.Result.Obligations, "cached": reply.Result.Cached}
		if r == 0 {
			ref = got
		} else {
			b.same(fmt.Sprintf("warm-up (set-up %d)", r), ref, got)
		}
	}
	b.settle()

	due := arrivals(b.seed, b.cfg.rps, b.seconds)
	cold := coldRequests(b.seed, len(due), b.cfg.coldEvery)
	replies := make([]verifyReply, len(due))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sends := openLoop(due, conns, func(i int) error {
		var err error
		replies[i], err = srv.verify(client, cold[i])
		return err
	})
	loadEnd := time.Now()
	runtime.ReadMemStats(&m1)
	if b.tr != nil && len(due) > 0 {
		// Requests overlap, so allocation is shared out per request.
		n := float64(len(due))
		b.count("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n)
		b.count("go.gc_cycles", float64(m1.NumGC-m0.NumGC)/n)
	}

	var late, exec, wait []float64
	completed, refused, cachedN, obligN := 0, 0, 0, 0
	for i, s := range sends {
		k := 0
		if cold[i] {
			k = 1
		}
		err, r := s.err, replies[i].Result
		if err == nil {
			wantCached := r.Obligations
			if cold[i] {
				wantCached = 0
			}
			if r.Obligations != ref["obligations"] || r.Cached != wantCached {
				err = fmt.Errorf("%w: %d obligations (%d cached), want %d (%d cached)", errWrong,
					r.Obligations, r.Cached, ref["obligations"], wantCached)
			}
		}
		b.done(i, err, errors.Is(err, errWrong))
		late = append(late, ms(s.late()))
		t := b.tracerFor(i)
		root := t.add("op."+b.w.kinds[k], i, -1, s.due, s.done)
		t.add("loadgen.late", i, root, s.due, s.send)
		if err != nil {
			// A failed job misses any latency limit.
			b.sample(k, t, math.Inf(1))
			if errors.Is(err, errRefused) {
				refused++
			}
			continue
		}
		completed++
		b.sample(k, t, ms(s.latency()))
		execEnd := s.send.Add(time.Duration(replies[i].ElapsedMS * float64(time.Millisecond)))
		t.add("serve.exec", i, root, s.send, execEnd)
		t.add("serve.wait", i, root, execEnd, s.done)
		if k == 0 {
			exec = append(exec, replies[i].ElapsedMS)
			wait = append(wait, ms(s.done.Sub(s.send))-replies[i].ElapsedMS)
			cachedN += r.Cached
			obligN += r.Obligations
		}
	}
	if b.tr != nil {
		b.layer["loadgen.offered_rps"] = float64(len(due)) / b.seconds.Seconds()
		b.layer["loadgen.completed_rps"] = float64(completed) / loadEnd.Sub(start).Seconds()
		b.layer["loadgen.late_ms.p90"], _ = tail(late, 0.9)
		b.layer["serve.exec_ms.p50"] = median(exec)
		b.layer["serve.wait_ms.p90"], _ = tail(wait, 0.9)
		b.layer["serve.refused"] = float64(refused)
		b.layer["verify.cached_ratio"] = ratio(float64(cachedN), float64(obligN))
		if err := replayVerify(b, srv, len(due), ref["obligations"]); err != nil {
			srv.stop()
			return err
		}
	}
	return srv.stop()
}

// replayVerify runs the server's /verify path in-process, outside the load
// phase, alternating a cached resubmission and a cold proof: StandardSuite
// then NewPipeline(...).Run with the options serve uses (one worker; the
// server's persistent cache unless cache:false).
func replayVerify(b *bench, srv *verifyServer, firstOp, obligations int) error {
	var checkMS, theoremMS []float64
	var ref map[string]int
	for i := 0; i < 2*b.cfg.replays; i++ {
		op, k := firstOp+i, i%2
		root := b.tr.start("replay."+b.w.kinds[k], op, -1)
		s := b.tr.start("verify.suite", op, root)
		obls, err := verify.StandardSuite()
		b.tr.stop(s)
		if err != nil {
			b.tr.stop(root)
			return err
		}
		opts := verify.Options{Workers: 1, Cache: k == 0}
		if k == 0 {
			opts.Persist = srv.srv.Cache()
		}
		s = b.tr.start("verify.pipeline", op, root)
		rep := verify.NewPipeline(opts).Run(context.Background(), obls)
		b.tr.stop(s)
		b.tr.stop(root)

		wantCached := len(obls)
		if k == 1 {
			wantCached = 0
		}
		if rep.Cancelled || !rep.AllProved() || len(rep.Results) != obligations || rep.Cached() != wantCached {
			b.done(op, fmt.Errorf("%w: replay proved %d of %d (%d cached, want %d)", errWrong,
				rep.Proved(), len(rep.Results), rep.Cached(), wantCached), true)
			continue
		}
		b.done(op, nil, false)
		if k == 0 {
			continue
		}
		c := map[string]int{}
		var chk, thm time.Duration
		for j, r := range rep.Results {
			if obls[j].Check != nil {
				chk += r.Elapsed
				c["checks"]++
			} else {
				thm += r.Elapsed
				c["theorems"]++
			}
			c["steps"] += r.Steps
			c["prim_steps"] += r.PrimSteps
			c["auto_prim"] += r.AutoPrim
		}
		checkMS, theoremMS = append(checkMS, ms(chk)), append(theoremMS, ms(thm))
		if ref == nil {
			ref = c
		} else {
			b.same("cold replay prover counts", ref, c)
		}
		for name, v := range c {
			b.rowCount("replay.prove", "verify.pipeline", name, float64(v))
		}
	}
	spans := b.tr.closed()
	b.layer["verify.suite_ms"] = median(durations(spans, "verify.suite"))
	var pipeline [2][]float64 // by kind: cached resubmission, cold proof
	for _, s := range spans {
		if s.Name == "verify.pipeline" {
			k := (s.Op - firstOp) % 2
			pipeline[k] = append(pipeline[k], ms(s.dur()))
		}
	}
	b.layer["verify.cached_pipeline_ms"] = median(pipeline[0])
	b.layer["verify.pipeline_ms"] = median(pipeline[1])
	b.layer["metarouting.check_ms"] = median(checkMS)
	b.layer["prover.theorem_ms"] = median(theoremMS)
	b.layer["prover.steps"] = float64(ref["steps"])
	b.layer["prover.prim_steps"] = float64(ref["prim_steps"])
	b.layer["prover.auto_ratio"] = ratio(float64(ref["auto_prim"]), float64(ref["prim_steps"]))
	return nil
}
