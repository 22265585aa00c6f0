package verify

import (
	"slices"
	"testing"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// BenchmarkTDynamicChecker measures the verification overhead per round at
// N=4096 under steady churn, in two modes: the delta-feed checker driven
// by the full round-delta plane — topology diff plus changed list, no
// graph at all (Feed, O(changes) per round) — and the Definition 2.1
// reference checker (per-round G^∩T/G^∪T rebuild from the last T graphs
// plus full CheckFull rescans), the baseline the delta path replaces.
func BenchmarkTDynamicChecker(b *testing.B) {
	const n = 4096
	const T = 16
	const cycle = 48
	base := graph.GNP(n, 8.0/float64(n), prf.NewStream(5, 0, 0, prf.PurposeWorkload))
	// Pre-generate a churned graph cycle (toggle 32 random node pairs per
	// round) and a drifting output schedule so both checkers process real
	// topology and output deltas every round without generator cost inside
	// the timed loop.
	s := prf.NewStream(17, 0, 0, prf.PurposeWorkload)
	graphs := make([]*graph.Graph, cycle)
	outs := make([][]problems.Value, cycle)
	bld := graph.NewBuilder(n)
	base.EachEdge(func(u, v graph.NodeID) { bld.AddEdge(u, v) })
	for i := range graphs {
		for j := 0; j < 32; j++ {
			u := graph.NodeID(s.Intn(n))
			v := graph.NodeID(s.Intn(n))
			if u == v {
				continue
			}
			if bld.HasEdge(u, v) {
				bld.RemoveEdge(u, v)
			} else {
				bld.AddEdge(u, v)
			}
		}
		graphs[i] = bld.Graph()
	}
	// Output schedule: a greedy coloring of the footprint (union of all
	// cycle graphs), churned by properly recoloring 32 random nodes per
	// round. Properness w.r.t. the footprint implies properness on every
	// window intersection graph, so — like a converged run of the real
	// algorithms — rounds are (near-)violation-free and the benchmark
	// measures checking cost, not violation-report formatting.
	foot := graphs[0]
	for _, g := range graphs[1:] {
		foot = graph.Union(foot, g)
	}
	recolor := func(out []problems.Value, v graph.NodeID) {
		used := make(map[problems.Value]bool)
		for _, u := range foot.Neighbors(v) {
			used[out[u]] = true
		}
		for c := problems.Value(1); ; c++ {
			if !used[c] {
				out[v] = c
				return
			}
		}
	}
	out := make([]problems.Value, n)
	for v := 0; v < n; v++ {
		recolor(out, graph.NodeID(v))
	}
	for i := range outs {
		for j := 0; j < 32; j++ {
			recolor(out, graph.NodeID(s.Intn(n)))
		}
		outs[i] = append([]problems.Value(nil), out...)
	}
	// Ping-pong through the cycle so every step — including the wrap — is
	// exactly one 32-toggle/32-recolor delta; a plain modulo wrap from
	// graphs[cycle-1] back to graphs[0] would inject one ~47×-churn round
	// per cycle and skew the delta path's steady-state numbers.
	order := make([]int, 0, 2*cycle-2)
	for i := 0; i < cycle; i++ {
		order = append(order, i)
	}
	for i := cycle - 2; i >= 1; i-- {
		order = append(order, i)
	}
	// changedInto[k] is the output diff over the transition into position
	// k of the ping-pong order (from position (k-1+L)%L) — what the
	// engine's RoundInfo.Changed feed would carry. The first observation
	// of a run diffs against the all-⊥ initial state instead.
	changedInto := make([][]graph.NodeID, len(order))
	for k := range order {
		prev := order[(k-1+len(order))%len(order)]
		changedInto[k] = outputDiff(slices.Clone(outs[prev]), outs[order[k]])
	}
	firstChanged := outputDiff(make([]problems.Value, n), outs[0])
	// addsInto/removesInto mirror changedInto on the topology side: the
	// edge diff over the transition into each ping-pong position, i.e.
	// what RoundInfo.EdgeAdds/EdgeRemoves would carry.
	addsInto := make([][]graph.EdgeKey, len(order))
	removesInto := make([][]graph.EdgeKey, len(order))
	for k := range order {
		prev := order[(k-1+len(order))%len(order)]
		addsInto[k], removesInto[k] = graph.DiffSortedKeys(
			graphs[prev].EdgeKeys(), graphs[order[k]].EdgeKeys(), nil, nil)
	}
	wake := allNodes(n)
	// Every round is the transition into ping-pong position k; the first
	// observation of a run diffs against the empty G_0 and the all-⊥
	// initial outputs instead.
	delta := func(k int) engine.RoundDelta {
		return engine.RoundDelta{
			EdgeAdds: addsInto[k], EdgeRemoves: removesInto[k],
			Outputs: outs[order[k]], Changed: changedInto[k],
		}
	}
	b.Run("delta-feed", func(b *testing.B) {
		chk := NewTDynamic(problems.Coloring(), T, n)
		chk.Feed(engine.RoundDelta{
			EdgeAdds: graphs[0].EdgeKeys(), Wake: wake,
			Outputs: outs[0], Changed: firstChanged,
		})
		for k := 1; k < len(order); k++ { // fill the window before timing
			chk.Feed(delta(k))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chk.Feed(delta(i % len(order)))
		}
	})
	b.Run("oracle", func(b *testing.B) {
		ref := newRefChecker(problems.Coloring(), T, n)
		ref.observe(graphs[0], wake, outs[0])
		for k := 1; k < len(order); k++ {
			ref.observe(graphs[order[k]], nil, outs[order[k]])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(order)
			ref.observe(graphs[order[k]], nil, outs[order[k]])
		}
	})
}
