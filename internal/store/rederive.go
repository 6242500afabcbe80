package store

import (
	"errors"

	"repro/internal/ndlog"
	"repro/internal/value"
)

// This file is the storage side of the distributed runtime's DRed
// ("delete and re-derive") cascade: after an over-delete, one seeded run
// per dead tuple decides whether an alternative derivation survives.

// ErrStop aborts an Exec.Run from inside its emit callback without
// reporting a failure — the early-exit signal of existence checks such as
// Rederivable. Run's other results are undefined after a stop; callers
// must treat the run as a boolean probe.
var ErrStop = errors.New("store: stop scan")

// Rederivable is the DRed re-derivation check: it reports whether head
// can still be derived by the rule compiled into plan (a HeadSeeded
// variant) against the current contents of ts. seedCols are the plan's
// HeadSeedCols; run must be an executor for plan. The scan stops at the
// first witness.
func Rederivable(run *Exec, ts TableSource, plan *ndlog.Plan, seedCols []int, head value.Tuple) (bool, error) {
	seed := make([]value.V, len(seedCols))
	for i, c := range seedCols {
		seed[i] = head[c]
	}
	buf := make(value.Tuple, len(head))
	found := false
	_, err := run.Run(ts, nil, seed, func(frame []value.V) error {
		if err := plan.BuildHead(run.Env(), buf); err != nil {
			return err
		}
		if buf.Equal(head) {
			found = true
			return ErrStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrStop) {
		return false, err
	}
	return found, nil
}
