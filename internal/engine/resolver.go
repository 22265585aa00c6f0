package engine

import (
	"slices"

	"dynlocal/internal/graph"
)

// resolver is the engine's lazy topology feed. observe folds each round's
// sorted edge diff into a pending net diff (with exact add/remove
// cancellation) in O(changes) and allocates nothing once warm; a CSR
// graph is built only when materialize is called — by RoundInfo.Graph and
// full checkpoints — so rounds nobody inspects never pay the patcher's
// O(n + m) merge. The pending net diff is bounded by the symmetric
// difference against the last materialized graph, i.e. O(m) however many
// rounds pass between materializations.
type resolver struct {
	p                *graph.Patcher // holds the last materialized graph
	pendAdd, pendRem map[graph.EdgeKey]struct{}
	matAdd, matRem   []graph.EdgeKey // sort scratch for materialize
}

// newResolver creates a resolver over an n-node universe; the topology
// starts as the empty graph G_0.
func newResolver(n int) *resolver {
	return &resolver{
		p:       graph.NewPatcher(n),
		pendAdd: make(map[graph.EdgeKey]struct{}),
		pendRem: make(map[graph.EdgeKey]struct{}),
	}
}

// observe folds one round's sorted edge diff into the pending net diff.
func (r *resolver) observe(adds, removes []graph.EdgeKey) {
	for _, k := range adds {
		if _, ok := r.pendRem[k]; ok {
			delete(r.pendRem, k)
		} else {
			r.pendAdd[k] = struct{}{}
		}
	}
	for _, k := range removes {
		if _, ok := r.pendAdd[k]; ok {
			delete(r.pendAdd, k)
		} else {
			r.pendRem[k] = struct{}{}
		}
	}
}

// materialize returns the current graph, folding any pending net diff
// into the pooled patcher first. With no pending changes it is O(1) (the
// previously materialized graph is returned unchanged); otherwise it
// costs one O(n + m) patcher merge. The returned graph follows the
// patcher lifetime: valid until the second-next materialization that
// actually patches; Clone to retain longer.
func (r *resolver) materialize() *graph.Graph {
	if len(r.pendAdd) == 0 && len(r.pendRem) == 0 {
		return r.p.Current()
	}
	r.matAdd = sortedKeys(r.pendAdd, r.matAdd[:0])
	r.matRem = sortedKeys(r.pendRem, r.matRem[:0])
	clear(r.pendAdd)
	clear(r.pendRem)
	return r.p.Apply(r.matAdd, r.matRem)
}

// sortedKeys appends a key set to dst in ascending order.
func sortedKeys(set map[graph.EdgeKey]struct{}, dst []graph.EdgeKey) []graph.EdgeKey {
	for k := range set {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
