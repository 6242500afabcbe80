// Package datalog implements bottom-up evaluation of NDlog programs:
// stratified semi-naive fixpoint computation, safe negation, and the
// min/max/count/sum head aggregates of NDlog (§2.2 of the paper), over
// the shared tuple store and compiled join plans of internal/store. The
// engine evaluates centralized programs; internal/dist layers the
// distributed, pipelined execution model on top of the same store and
// plan executor.
package datalog

import "repro/internal/store"

// Relation is a set of tuples of fixed arity with hash indexes built
// lazily on column subsets. It is the shared store.Table specialized to
// whole-tuple identity (set semantics, no soft state).
type Relation = store.Table

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return store.New(name, arity, nil, 0)
}
