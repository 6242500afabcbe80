package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

// post sends a JSON job request and decodes the response envelope.
func post(t *testing.T, url, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading response: %v", path, err)
	}
	var env map[string]any
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("POST %s: bad envelope %q: %v", path, b, err)
		}
	}
	return resp.StatusCode, env
}

func result(t *testing.T, env map[string]any) map[string]any {
	t.Helper()
	res, ok := env["result"].(map[string]any)
	if !ok {
		t.Fatalf("envelope has no result object: %v", env)
	}
	return res
}

// TestConcurrentMixedJobs is the acceptance load: at least 8 concurrent
// jobs of all four kinds against one server, every one admitted and
// completed with a well-formed envelope.
func TestConcurrentMixedJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 8})
	jobs := []struct{ path, body string }{
		{"/verify", `{}`},
		{"/verify", `{"workers": 4}`},
		{"/mc", `{"max_states": 2048}`},
		{"/mc", `{"max_states": 2048, "workers": 2}`},
		{"/chaos", `{"runs": 2, "topo": "ring:4"}`},
		{"/chaos", `{"runs": 2, "topo": "line:4", "seed": 7}`},
		{"/run", `{}`},
		{"/run", `{"topo": "grid:3", "seed": 3}`},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, env := post(t, ts.URL, j.path, j.body)
			if code != http.StatusOK {
				errs <- fmt.Errorf("%s %s: status %d", j.path, j.body, code)
				return
			}
			if env["kind"] == nil || env["result"] == nil {
				errs <- fmt.Errorf("%s: malformed envelope %v", j.path, env)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPerRequestResourceCaps: request-supplied sizes are clamped to the
// server's configured limits, never trusted.
func TestPerRequestResourceCaps(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRuns: 2, MaxStates: 512})

	code, env := post(t, ts.URL, "/chaos", `{"runs": 50, "topo": "ring:4"}`)
	if code != http.StatusOK {
		t.Fatalf("chaos: status %d", code)
	}
	if runs := result(t, env)["runs"].(float64); runs != 2 {
		t.Errorf("chaos runs = %v, want clamped to 2", runs)
	}

	code, env = post(t, ts.URL, "/mc", `{"max_states": 1048576}`)
	if code != http.StatusOK {
		t.Fatalf("mc: status %d", code)
	}
	if n := result(t, env)["reachable"].(float64); n > 512 {
		t.Errorf("mc reachable = %v states, server cap is 512", n)
	}
}

// TestChaosRefusesUncheckablePrograms: /chaos accepts any NDlog src, but
// its route checks read path vector's bestPathCost/3 and bestPath/4. A
// reachability program derives neither, and a program with a two-column
// bestPathCost cannot be read by position (unrefused, it panics the job
// and drops the connection), so both are answered 400.
func TestChaosRefusesUncheckablePrograms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, src := range map[string]string{
		"reach": `materialize(link, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
r1 reach(@S,D) :- link(@S,D,C).
r2 reach(@S,D) :- link(@S,Z,C), reach(@Z,D).`,
		"arity2": `materialize(link, infinity, infinity, keys(1,2)).
materialize(bestPathCost, infinity, infinity, keys(1,2)).
materialize(bestPath, infinity, infinity, keys(1,2)).
b1 bestPathCost(@S,D) :- link(@S,D,C).
b2 bestPath(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).`,
	} {
		body, _ := json.Marshal(map[string]any{"src": src, "topo": "ring:6", "runs": 3})
		if code, env := post(t, ts.URL, "/chaos", string(body)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (envelope %v)", name, code, env)
		}
	}
}

// TestRunRefusesLossOutsideUnitInterval: /run's loss is the per-link
// loss rate of the plan's default channel, so a rate outside [0,1] is
// refused with 400, and a rate inside it still runs to convergence.
func TestRunRefusesLossOutsideUnitInterval(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, loss := range []string{"1.5", "-0.1"} {
		if code, env := post(t, ts.URL, "/run", `{"loss": `+loss+`}`); code != http.StatusBadRequest {
			t.Errorf("loss %s: status %d, want 400 (envelope %v)", loss, code, env)
		}
	}
	code, env := post(t, ts.URL, "/run", `{"loss": 0.2, "seed": 3}`)
	if code != http.StatusOK {
		t.Fatalf("loss 0.2: status %d", code)
	}
	if res := result(t, env); res["converged"] != true {
		t.Errorf("loss 0.2: run did not converge: %v", res)
	}
}

// TestOversizedTopologyRefusedBeforeBuild: a topology spec whose graph
// could exceed the request bounds (10^4 nodes, 10^5 directed links) is
// refused with 400 from its reported size alone, before any graph is
// built: the refusal allocates far less than the graph would.
func TestOversizedTopologyRefusedBeforeBuild(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ path, topo string }{
		{"/run", "ring:20000"}, // 2*10^4 nodes
		{"/run", "clique:400"}, // 159,600 links
		{"/chaos", "grid:101"}, // 10,201 nodes
		{"/chaos", "rand:317"}, // up to 100,172 links
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, env := post(t, ts.URL, tc.path, `{"topo": "`+tc.topo+`", "timeout_ms": 100}`)
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (envelope %v)", tc.path, tc.topo, code, env)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s %s: refusal allocated %d bytes", tc.path, tc.topo, alloc)
		}
	}
}

// TestRunnerPanicAnswers500: a runner that panics is answered 500 with
// the panic value, or in stream mode with a final error line, instead of
// a dropped connection. The job still releases its execution slot (the
// single slot serves the second request) and its job count (shutdown
// drains).
func TestRunnerPanicAnswers500(t *testing.T) {
	s, err := New(Options{MaxConcurrent: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.job("boom", func(context.Context, []byte, int, *obs.Tracer) (any, error) {
		panic("kaboom")
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	for _, query := range []string{"", "?stream=1"} {
		resp, err := http.Post(ts.URL+query, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatalf("POST %q: %v", query, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if query == "" {
			if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "kaboom") {
				t.Errorf("status %d body %q, want 500 naming the panic", resp.StatusCode, b)
			}
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("stream: last line %q: %v", lines[len(lines)-1], err)
		}
		if msg, _ := last["error"].(string); !strings.Contains(msg, "kaboom") {
			t.Errorf("stream: final line %v, want an error naming the panic", last)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown after the panicking jobs: %v", err)
	}
}

// TestAdmissionQueueOverflow: with the single execution slot held and
// the one queue seat taken, the next request is refused immediately
// with 429 and a Retry-After hint; when the slot frees, the queued job
// runs to completion.
func TestAdmissionQueueOverflow(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: 1})

	s.sem <- struct{}{} // occupy the only slot
	queued := make(chan int, 1)
	go func() {
		code, _ := post(t, ts.URL, "/run", `{}`)
		queued <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	<-s.sem // free the slot; the queued job proceeds
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued job after slot freed: status %d, want 200", code)
	}
}

// TestJobTimeoutReportsCancelled: a tiny per-request deadline cuts a
// long campaign short; the response still arrives (200) but is marked
// cancelled — partial results, not a verdict.
func TestJobTimeoutReportsCancelled(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRuns: 500})
	code, env := post(t, ts.URL, "/chaos", `{"runs": 500, "timeout_ms": 100}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if env["cancelled"] != true {
		t.Errorf("envelope of a timed-out job not marked cancelled: %v", env)
	}
	res := result(t, env)
	if res["cancelled"] != true {
		t.Errorf("chaos result of a timed-out job not marked cancelled: %v", res)
	}
	if runs := res["runs"].(float64); runs >= 500 {
		t.Errorf("timed-out campaign completed all %v runs", runs)
	}
}

// TestCachePersistsAcrossRestart is the acceptance check for the
// persistent cache: a second server opened on the same cache file
// serves the whole verify suite from cache.
func TestCachePersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	a, tsA := newTestServer(t, Options{CachePath: path})
	code, env := post(t, tsA.URL, "/verify", `{"workers": 4}`)
	if code != http.StatusOK {
		t.Fatalf("first verify: status %d", code)
	}
	first := result(t, env)

	// Same suite on the same server: everything replays from cache.
	code, env = post(t, tsA.URL, "/verify", `{}`)
	if code != http.StatusOK {
		t.Fatalf("second verify: status %d", code)
	}
	warm := result(t, env)
	if warm["cached"].(float64) != warm["obligations"].(float64) {
		t.Errorf("resubmitted suite: %v of %v obligations cached, want all",
			warm["cached"], warm["obligations"])
	}
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	tsA.Close()

	// Fresh process (new Server, same file): still a full cache hit.
	_, tsB := newTestServer(t, Options{CachePath: path})
	code, env = post(t, tsB.URL, "/verify", `{}`)
	if code != http.StatusOK {
		t.Fatalf("post-restart verify: status %d", code)
	}
	cold := result(t, env)
	if cold["cached"].(float64) != cold["obligations"].(float64) {
		t.Errorf("post-restart suite: %v of %v obligations cached, want all",
			cold["cached"], cold["obligations"])
	}
	if cold["proved"] != first["proved"] {
		t.Errorf("cached verdicts differ: proved %v after restart, %v fresh",
			cold["proved"], first["proved"])
	}
}

// TestShutdownCancelsInFlightJobs: Shutdown fires the base context, the
// long-running job writes its partial (cancelled) response, and new
// requests are refused with 503.
func TestShutdownCancelsInFlightJobs(t *testing.T) {
	s, err := New(Options{MaxRuns: 500})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type outcome struct {
		code int
		env  map[string]any
	}
	done := make(chan outcome, 1)
	go func() {
		code, env := post(t, ts.URL, "/chaos", `{"runs": 500}`)
		done <- outcome{code, env}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	out := <-done
	if out.code != http.StatusOK {
		t.Fatalf("in-flight job during shutdown: status %d, want 200 with partial result", out.code)
	}
	if out.env["cancelled"] != true {
		t.Errorf("in-flight job not cancelled by shutdown: %v", out.env)
	}

	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// TestStreamEmitsProgressThenResult: stream=1 responses are JSONL —
// trace events as they happen, then exactly one final envelope line.
func TestStreamEmitsProgressThenResult(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want trace events plus a result line:\n%s", len(lines), b)
	}
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("stream line %d is not JSON: %q", i, ln)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["result"] == nil || last["kind"] != "run" {
		t.Errorf("final stream line is not the result envelope: %v", last)
	}
	for _, ln := range lines[:len(lines)-1] {
		var ev map[string]any
		json.Unmarshal([]byte(ln), &ev)
		if ev["result"] != nil {
			t.Errorf("result envelope emitted before the end of the stream: %q", ln)
		}
	}
}

// TestHealthzStatusz sanity-checks the introspection endpoints.
func TestHealthzStatusz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st map[string]any
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, b)
	}
	for _, k := range []string{"active", "slots", "queue", "jobs", "cache"} {
		if _, ok := st[k]; !ok {
			t.Errorf("statusz missing %q: %s", k, b)
		}
	}
}

// TestRetryAfterReflectsLoad: the 429 Retry-After hint is derived from
// the live queue depth and the mean recent job duration — before any job
// completes it falls back to the default per-job timeout, afterwards it
// estimates the drain time of the jobs ahead of the rejected client.
func TestRetryAfterReflectsLoad(t *testing.T) {
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 1, QueueDepth: 1, DefaultTimeout: 45 * time.Second,
	})

	// Cold server: no completed jobs, so the hint is the old fixed
	// fallback (DefaultTimeout + 1).
	if got := s.retryAfter(); got != 46 {
		t.Fatalf("cold retryAfter = %d, want 46", got)
	}

	s.recordDuration(2 * time.Second)
	s.recordDuration(4 * time.Second)
	s.sem <- struct{}{} // occupy the only slot
	queued := make(chan int, 1)
	go func() {
		code, _ := post(t, ts.URL, "/run", `{}`)
		queued <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Two jobs ahead (one running, one queued) drain in two waves of the
	// 3s mean: the overflow response must carry that estimate, not the
	// 46s fallback.
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want \"7\" (2 waves x 3s mean + 1)", got)
	}

	<-s.sem
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued job after slot freed: status %d, want 200", code)
	}
}

// TestStatuszReportsSelfHealCounters: after a chaos job runs with the
// reliability layer, /statusz exposes the accumulated checkpoint and
// repair counters; before any such job the section is absent entirely.
func TestStatuszReportsSelfHealCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	statusz := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st map[string]any
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("statusz is not JSON: %v\n%s", err, b)
		}
		return st
	}

	if _, ok := statusz()["selfheal"]; ok {
		t.Fatal("statusz reports selfheal counters before any self-healing job")
	}

	code, env := post(t, ts.URL, "/chaos",
		`{"runs": 3, "topo": "ring:4", "reliable": true, "checkpoint_every": 10, "anti_entropy": true}`)
	if code != http.StatusOK {
		t.Fatalf("chaos: status %d", code)
	}
	if fails := result(t, env)["failures"].(float64); fails != 0 {
		t.Fatalf("self-healing chaos campaign had %v failing runs: %v", fails, env)
	}

	sh, ok := statusz()["selfheal"].(map[string]any)
	if !ok {
		t.Fatal("statusz missing selfheal section after a self-healing chaos job")
	}
	if sh["checkpoints"].(float64) <= 0 {
		t.Errorf("selfheal checkpoints = %v, want > 0", sh["checkpoints"])
	}
	for _, k := range []string{"retransmits", "restores", "repair_pulls", "give_ups"} {
		if _, ok := sh[k]; !ok {
			t.Errorf("selfheal section missing %q: %v", k, sh)
		}
	}
}
