package store

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/value"
)

// TableSource resolves predicate names to tables. A nil result means the
// predicate has no tuples yet (positive atoms match nothing, negations
// trivially hold).
type TableSource interface {
	Table(pred string) *Table
}

// Exec evaluates one compiled plan. It owns the reusable frame, key
// buffer, call-argument buffers, per-step index handles, and scan
// scratch space, so the inner join loop does not allocate per probe. An
// Exec is single-goroutine state; create one per plan per evaluator.
type Exec struct {
	Plan *ndlog.Plan

	env     ndlog.EvalEnv
	keyBuf  []byte
	scratch [][]value.Tuple // per-step shuffle buffers
	idx     []map[*Table]*Index
	shuffle *Shuffler
	cur     []value.Tuple // per-step candidate bound by the active frame

	// per-Run state
	ts     TableSource
	delta  []value.Tuple
	emit   func([]value.V) error
	probes int64
}

// NewExec returns an executor for p.
func NewExec(p *ndlog.Plan) *Exec {
	x := &Exec{Plan: p}
	x.env.Frame = make([]value.V, p.NumSlots)
	x.env.CallBufs = make([][]value.V, len(p.CallArities))
	for i, n := range p.CallArities {
		x.env.CallBufs[i] = make([]value.V, n)
	}
	x.scratch = make([][]value.Tuple, len(p.Steps))
	x.idx = make([]map[*Table]*Index, len(p.Steps))
	x.cur = make([]value.Tuple, len(p.Steps))
	return x
}

// SetShuffle makes full scans enumerate in a seeded pseudo-random order
// drawn from s (the distributed runtime's timing-jitter model). Nil
// restores deterministic insertion-order scans.
func (x *Exec) SetShuffle(s *Shuffler) { x.shuffle = s }

// Run evaluates the plan: delta supplies the tuples for a StepDelta
// (semi-naive evaluation), seed pre-binds Plan.SeedSlots (seeded
// aggregate recomputation), and emit receives the frame once per
// satisfying assignment. The frame is reused across emissions; emit must
// copy what it keeps. Run returns the number of candidate tuples probed.
func (x *Exec) Run(ts TableSource, delta []value.Tuple, seed []value.V, emit func([]value.V) error) (int64, error) {
	if err := CheckDeltaArity(x.Plan, delta); err != nil {
		return 0, err
	}
	x.ts, x.delta, x.emit = ts, delta, emit
	x.probes = 0
	for i, s := range x.Plan.SeedSlots {
		x.env.Frame[s] = seed[i]
	}
	err := x.step(0)
	x.ts, x.delta, x.emit = nil, nil, nil
	return x.probes, err
}

// CheckDeltaArity validates the supplied delta tuples against the arity
// recorded at plan-build time. A mismatch is a planner or caller bug;
// reporting it up front keeps it from masquerading as an empty join.
func CheckDeltaArity(p *ndlog.Plan, delta []value.Tuple) error {
	if p.DeltaIdx < 0 {
		return nil
	}
	for _, tup := range delta {
		if len(tup) != p.DeltaArity {
			return fmt.Errorf("store: rule %s: delta tuple %v has arity %d, plan expects %d",
				p.Rule.Label, tup, len(tup), p.DeltaArity)
		}
	}
	return nil
}

// Env returns the executor's evaluation environment, for evaluating the
// plan's head expressions inside an emit callback.
func (x *Exec) Env() *ndlog.EvalEnv { return &x.env }

// CurTuple returns the candidate tuple bound at step i for the frame
// currently being emitted. Valid only inside an emit callback, and only
// for scan/delta steps (Plan.AntSteps); provenance recorders use it to
// resolve a firing's antecedent tuples.
func (x *Exec) CurTuple(i int) value.Tuple { return x.cur[i] }

func (x *Exec) index(i int, t *Table, cols []int) *Index {
	m := x.idx[i]
	if m == nil {
		m = map[*Table]*Index{}
		x.idx[i] = m
	}
	ix, ok := m[t]
	if !ok {
		ix = t.IndexOn(cols)
		m[t] = ix
	}
	return ix
}

func (x *Exec) step(i int) error {
	if i == len(x.Plan.Steps) {
		return x.emit(x.env.Frame)
	}
	st := &x.Plan.Steps[i]
	switch st.Kind {
	case ndlog.StepScan:
		t := x.ts.Table(st.Pred)
		if t == nil {
			return nil
		}
		// Pin for the duration of the candidate loop: a delete triggered
		// from inside emit (or a nested scan of the same table) must not
		// compact t.order — or shift an index bucket — under this
		// iteration. Deleted candidates become nil tombstones instead.
		// (Manual Unpin on every exit: a defer here costs ~30% on the
		// recursive hot path.)
		t.Pin()
		var cands []value.Tuple
		if len(st.KeyCols) == 0 {
			cands = t.All()
		} else {
			key, err := x.stepKey(st)
			if err != nil {
				t.Unpin()
				return err
			}
			cands = x.index(i, t, st.KeyCols).Bucket(key)
		}
		// The shuffle covers indexed scans too: ties broken by "last
		// emission wins" key replacement must see jitter on bucket order,
		// not just on full scans.
		if x.shuffle != nil && len(cands) > 1 {
			cands = x.shuffle.Shuffle(cands, &x.scratch[i])
		}
		for _, tup := range cands {
			if tup == nil { // tombstone of a deletion during this scan
				continue
			}
			x.probes++
			ok, err := x.applyOps(st, tup)
			if err == nil && ok {
				x.cur[i] = tup
				err = x.step(i + 1)
			}
			if err != nil {
				t.Unpin()
				return err
			}
		}
		t.Unpin()
		return nil
	case ndlog.StepDelta:
		for _, tup := range x.delta {
			if len(tup) != len(st.Ops) {
				// Unreachable after the up-front CheckDeltaArity; kept as a
				// hard failure so a future planner bug cannot silently drop
				// tuples again.
				return fmt.Errorf("store: rule %s: delta tuple %v does not match %d step ops",
					x.Plan.Rule.Label, tup, len(st.Ops))
			}
			x.probes++
			ok, err := x.applyOps(st, tup)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			x.cur[i] = tup
			if err := x.step(i + 1); err != nil {
				return err
			}
		}
		return nil
	case ndlog.StepNotExists:
		t := x.ts.Table(st.Pred)
		if t == nil {
			return x.step(i + 1)
		}
		x.probes++
		if len(st.KeyCols) == 0 {
			if t.Len() > 0 {
				return nil
			}
			return x.step(i + 1)
		}
		key, err := x.stepKey(st)
		if err != nil {
			return err
		}
		if len(x.index(i, t, st.KeyCols).Bucket(key)) > 0 {
			return nil
		}
		return x.step(i + 1)
	case ndlog.StepAssign:
		v, err := st.Expr.Eval(&x.env)
		if err != nil {
			return err
		}
		x.env.Frame[st.Slot] = v
		return x.step(i + 1)
	case ndlog.StepFilter:
		v, err := st.Expr.Eval(&x.env)
		if err != nil {
			return err
		}
		if !v.True() {
			return nil
		}
		return x.step(i + 1)
	}
	return nil
}

// stepKey builds the step's index key into the reusable buffer. On
// error the buffer is reset to empty, never left holding a partially
// built key a later probe could mistake for a complete one.
func (x *Exec) stepKey(st *ndlog.Step) ([]byte, error) {
	b := x.keyBuf[:0]
	for j, e := range st.KeyExprs {
		if j > 0 {
			b = append(b, '|')
		}
		v, err := e.Eval(&x.env)
		if err != nil {
			x.keyBuf = b[:0]
			return nil, err
		}
		b = v.AppendKey(b)
	}
	x.keyBuf = b
	return b, nil
}

// applyOps binds and checks the non-key columns of a candidate tuple.
func (x *Exec) applyOps(st *ndlog.Step, tup value.Tuple) (bool, error) {
	for _, op := range st.Ops {
		if op.Slot >= 0 {
			x.env.Frame[op.Slot] = tup[op.Col]
			continue
		}
		v, err := op.Expr.Eval(&x.env)
		if err != nil {
			return false, err
		}
		if !v.Equal(tup[op.Col]) {
			return false, nil
		}
	}
	return true, nil
}

// Shuffler is a small deterministic PRNG (an LCG) driving the
// distributed runtime's scan-order jitter. Two runs with the same seed
// draw the same permutation stream.
type Shuffler struct{ state uint64 }

// NewShuffler returns a shuffler seeded from seed.
func NewShuffler(seed uint64) *Shuffler {
	return &Shuffler{state: seed ^ 0x9e3779b97f4a7c15}
}

func (s *Shuffler) next() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state >> 1
}

// Shuffle copies ts into *buf (reusing its capacity) and applies a
// Fisher-Yates permutation from the deterministic stream.
func (s *Shuffler) Shuffle(ts []value.Tuple, buf *[]value.Tuple) []value.Tuple {
	b := (*buf)[:0]
	b = append(b, ts...)
	*buf = b
	for i := len(b) - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		b[i], b[j] = b[j], b[i]
	}
	return b
}
