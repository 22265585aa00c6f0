package engine_test

// A reference round walk written directly from the model of Section 2,
// the baseline TestEngineMatchesReferenceWalk holds the engine to. It is
// deliberately naive: serial, no sharding, no pooling, no active set or
// quiescence, no checkpoint tracking. Every round it folds the adversary's
// edge diff into its own edge set and rebuilds G_r from it, wakes nodes, lets every awake node broadcast,
// delivers each broadcast to all current neighbours and lets every awake
// node process its inbox together with its degree in G_r.

import (
	"fmt"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// refWalk is the reference engine. outputs[r-1] is the end-of-round
// snapshot of round r; the adversary's lagged view reads it.
type refWalk struct {
	n, lag int
	seed   uint64
	adv    adversary.Adversary
	algo   engine.Algorithm
	// edges is the edge set of G_r after round r (G_0 is empty).
	edges   map[graph.EdgeKey]bool
	awake   []bool
	nodes   []engine.NodeProc
	outputs [][]problems.Value
}

func newRefWalk(n, lag int, seed uint64, adv adversary.Adversary, algo engine.Algorithm) *refWalk {
	return &refWalk{
		n: n, lag: lag, seed: seed, adv: adv, algo: algo,
		edges: make(map[graph.EdgeKey]bool),
		awake: make([]bool, n),
		nodes: make([]engine.NodeProc, n),
	}
}

// refView is the adversary's view of the round being built.
type refView struct {
	w *refWalk
	r int
}

func (v refView) Round() int                 { return v.r }
func (v refView) N() int                     { return v.w.n }
func (v refView) Awake(id graph.NodeID) bool { return v.w.awake[id] }
func (v refView) DelayedOutputs() []problems.Value {
	if seen := v.r - v.w.lag; seen >= 1 {
		return v.w.outputs[seen-1]
	}
	return nil
}

// step plays one round and appends it to tr.
func (w *refWalk) step(tr *fullTrace) {
	r := len(w.outputs) + 1
	ctx := func(v graph.NodeID) *engine.Ctx { return &engine.Ctx{Node: v, Round: r, Seed: w.seed} }

	// 1. The adversary's step: its edge diff, folded into G_r.
	st := w.adv.Step(refView{w, r})
	adds, removes := st.EdgeAdds, st.EdgeRemoves
	g := w.fold(adds, removes)

	// 2. Wake-ups: a new node starts with its input (⊥ here).
	for _, v := range st.Wake {
		if !w.awake[v] {
			w.awake[v] = true
			w.nodes[v] = w.algo.NewNode(v)
			w.nodes[v].Start(ctx(v), problems.Bot)
		}
	}

	// 3. Local broadcast, in ascending id order; every neighbour in G_r
	// receives the whole batch.
	sizer, _ := w.algo.(engine.BitSizer)
	out := make([][]engine.SubMsg, w.n)
	messages, bits := 0, int64(0)
	for v := range w.n {
		if !w.awake[v] {
			continue
		}
		id := graph.NodeID(v)
		out[v] = w.nodes[v].Broadcast(ctx(id), nil)
		deg := g.Degree(id)
		messages += len(out[v]) * deg
		if sizer != nil {
			for _, m := range out[v] {
				bits += int64(sizer.MessageBits(m)) * int64(deg)
			}
		}
	}

	// 4–5. Each awake node receives its neighbours' batches, senders in
	// ascending order, and processes them with its round degree.
	prev := make([]problems.Value, w.n) // all ⊥ before round 1
	if r > 1 {
		prev = w.outputs[r-2]
	}
	snap := make([]problems.Value, w.n)
	var changed []graph.NodeID
	for v := range w.n {
		if !w.awake[v] {
			continue
		}
		id := graph.NodeID(v)
		var in []engine.Incoming
		for _, u := range g.Neighbors(id) {
			for _, m := range out[u] {
				in = append(in, engine.Incoming{From: u, M: m})
			}
		}
		w.nodes[v].Process(ctx(id), in, g.Degree(id))
		snap[v] = w.nodes[v].Output()
		// 6. The output diff against the previous round.
		if snap[v] != prev[v] {
			changed = append(changed, id)
		}
	}
	w.outputs = append(w.outputs, snap)

	tr.outputs = append(tr.outputs, snap)
	tr.changed = append(tr.changed, changed)
	tr.adds = append(tr.adds, append([]graph.EdgeKey(nil), adds...))
	tr.removes = append(tr.removes, append([]graph.EdgeKey(nil), removes...))
	tr.messages = append(tr.messages, messages)
	tr.bits = append(tr.bits, bits)
}

// fold applies one round's diff to the edge set, checking the Step
// contract (strictly ascending keys, adds absent, removes present), and
// returns G_r built from scratch.
func (w *refWalk) fold(adds, removes []graph.EdgeKey) *graph.Graph {
	for _, diff := range []struct {
		keys  []graph.EdgeKey
		added bool
	}{{adds, true}, {removes, false}} {
		for i, k := range diff.keys {
			if i > 0 && diff.keys[i-1] >= k {
				panic(fmt.Sprintf("refwalk: diff keys not strictly ascending at %s", k))
			}
			if w.edges[k] == diff.added {
				panic(fmt.Sprintf("refwalk: diff entry %s (added=%v) does not change the edge set", k, diff.added))
			}
			if diff.added {
				w.edges[k] = true
			} else {
				delete(w.edges, k)
			}
		}
	}
	keys := make([]graph.EdgeKey, 0, len(w.edges))
	for k := range w.edges {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return graph.FromSortedEdges(w.n, keys)
}

// refTrace plays rounds rounds of the reference walk under the engine's
// default obliviousness lag and the seed runTrace uses.
func refTrace(n, rounds int, adv adversary.Adversary, algo engine.Algorithm) fullTrace {
	w := newRefWalk(n, engine.DefaultOutputLag, runSeed, adv, algo)
	var tr fullTrace
	for range rounds {
		w.step(&tr)
	}
	return tr
}
