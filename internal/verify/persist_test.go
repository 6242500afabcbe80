package verify

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/logic"
)

// persistWriterEnv names the cache file a re-executed test binary writes.
const persistWriterEnv = "FVN_VERIFY_CACHE_WRITER"

// TestPersistentCacheKeysAgreeAcrossProcesses checks that persisted theorem
// keys depend on content alone. Process A, the re-executed test binary,
// proves the path-vector obligations into a cache file. Process B, this
// one, first builds a goal A never saw, then declares the same theory's
// theorems in reverse order followed by that unprovable goal, and reads
// A's file. Every goal A proved must hit and replay exactly what a fresh
// proof gives; the unprovable goal must never hit.
func TestPersistentCacheKeysAgreeAcrossProcesses(t *testing.T) {
	if path := os.Getenv(persistWriterEnv); path != "" {
		writePathVectorCache(t, path)
		return
	}

	path := filepath.Join(t.TempDir(), "cache.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestPersistentCacheKeysAgreeAcrossProcesses$", "-test.count=1")
	cmd.Env = append(os.Environ(), persistWriterEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("writer process: %v\n%s", err, out)
	}

	unprovable := logic.Cmp{Op: "<", L: logic.IntT(2), R: logic.IntT(1)}
	obls, err := PathVectorObligations()
	if err != nil {
		t.Fatal(err)
	}
	th := obls[0].Theory
	rev := logic.NewTheory(th.Name)
	for _, d := range th.Inductives {
		rev.AddInductive(d)
	}
	for _, ax := range th.Axioms {
		rev.AddAxiom(ax.Name, ax.Goal)
	}
	for i := len(th.Theorems) - 1; i >= 0; i-- {
		rev.AddTheorem(th.Theorems[i].Name, th.Theorems[i].Goal)
	}
	rev.AddTheorem("unprovable", unprovable)
	revObls := TheoryObligations("pathvector", rev, pathVectorScripts)

	store, err := cache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Stats().Loaded; got != len(obls) {
		t.Fatalf("loaded %d entries from the writer's cache, want %d", got, len(obls))
	}

	fresh := NewPipeline(Options{Workers: 1}).Run(context.Background(), revObls)
	got := NewPipeline(Options{Workers: 1, Persist: store}).Run(context.Background(), revObls)
	for i, ob := range revObls {
		res := got.Results[i]
		if ob.Theorem == "unprovable" {
			if res.Cached || res.Proved {
				t.Errorf("%s: cached=%v proved=%v, want a fresh failed proof", ob.Name, res.Cached, res.Proved)
			}
			continue
		}
		if !fresh.Results[i].Proved {
			t.Errorf("%s: fresh proof failed: %s", ob.Name, fresh.Results[i].Err)
		}
		if !res.Cached {
			t.Errorf("%s: missed the writer's cache entry", ob.Name)
		}
		sameOutcome(t, "replay", fresh.Results[i], res)
	}
}

// writePathVectorCache is process A: prove the path-vector obligations in
// declaration order and persist every result to path.
func writePathVectorCache(t *testing.T, path string) {
	obls, err := PathVectorObligations()
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewPipeline(Options{Workers: 1, Persist: store}).Run(context.Background(), obls)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if !rep.AllProved() {
		t.Fatalf("writer: %d obligations failed", rep.Failed())
	}
}
