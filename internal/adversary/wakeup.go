package adversary

import (
	"cmp"
	"slices"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// Wakeup wraps an inner adversary with an asynchronous wake-up schedule
// (Section 2: V_0 = ∅ ⊆ V_1 ⊆ V_2 ⊆ …). Node v wakes in round
// Schedule[v] (1-based); edges of the inner topology incident to
// still-asleep nodes are suppressed. The inner adversary's own wake sets
// are ignored — the schedule is authoritative.
//
// A suppressed edge must appear when its second endpoint wakes, which is
// not a function of the inner diff alone, so the wrapper keeps the inner
// topology in a graph.DynAdj. Its diff is the inner diff restricted to
// edges whose endpoints were both awake already, plus the inner edges
// between a node woken this round and an awake node: O(changes + edges at
// newly woken nodes) per round.
type Wakeup struct {
	Inner    Adversary
	Schedule []int

	inner *graph.DynAdj // the inner adversary's current topology
	awake []bool
	// order lists node ids by (Schedule, id), so a round's wake set is
	// found by binary search instead of a rescan of the schedule.
	order   []graph.NodeID
	addBuf  []graph.EdgeKey
	remBuf  []graph.EdgeKey
	wakeBuf []graph.EdgeKey
	// lastRound is the last round stepped — with Schedule it determines
	// the awake set, which is how a checkpoint restore rebuilds it.
	lastRound int
}

// init builds the wrapper's state for the position after lastRound with
// an empty inner topology.
func (w *Wakeup) init(n int) {
	w.inner = graph.NewDynAdj(n)
	w.awake = make([]bool, len(w.Schedule))
	w.order = make([]graph.NodeID, len(w.Schedule))
	for id := range w.order {
		w.order[id] = graph.NodeID(id)
	}
	slices.SortStableFunc(w.order, func(a, b graph.NodeID) int {
		return cmp.Compare(w.Schedule[a], w.Schedule[b])
	})
	for id, wr := range w.Schedule {
		w.awake[id] = wr >= 1 && wr <= w.lastRound
	}
}

// Step implements Adversary.
func (w *Wakeup) Step(v View) Step {
	if w.awake == nil {
		w.init(v.N())
	}
	r := v.Round()
	w.lastRound = r
	inner := w.Inner.Step(v)
	w.inner.Apply(inner.EdgeAdds, inner.EdgeRemoves)
	// Between nodes awake before this round, an edge changes exactly when
	// the inner adversary changes it.
	both := func(k graph.EdgeKey) bool { x, y := k.Nodes(); return w.awake[x] && w.awake[y] }
	adds := keepKeys(w.addBuf[:0], inner.EdgeAdds, both)
	removes := keepKeys(w.remBuf[:0], inner.EdgeRemoves, both)

	start, _ := slices.BinarySearchFunc(w.order, r, func(id graph.NodeID, r int) int {
		return cmp.Compare(w.Schedule[id], r)
	})
	end := start
	for ; end < len(w.order) && w.Schedule[w.order[end]] == r; end++ {
		w.awake[w.order[end]] = true
	}
	// Ascending ids: order is sorted by id within one schedule round.
	wake := w.order[start:end:end]
	if len(wake) > 0 {
		// A woken node's edges to awake nodes appear, each once: from its
		// smaller endpoint when both woke this round.
		woke := w.wakeBuf[:0]
		for _, x := range wake {
			for _, y := range w.inner.Neighbors(x) {
				if w.awake[y] && (w.Schedule[y] != r || x < y) {
					woke = append(woke, graph.MakeEdgeKey(x, y))
				}
			}
		}
		slices.Sort(woke)
		w.wakeBuf = woke
		adds = mergeSortedKeys(adds, woke)
	}
	w.addBuf, w.remBuf = adds, removes
	return Step{Wake: wake, EdgeAdds: adds, EdgeRemoves: removes}
}

// StaggeredSchedule wakes perRound nodes per round in id order.
func StaggeredSchedule(n, perRound int) []int {
	if perRound < 1 {
		perRound = 1
	}
	sched := make([]int, n)
	for v := 0; v < n; v++ {
		sched[v] = v/perRound + 1
	}
	return sched
}

// UniformRandomSchedule wakes each node in a uniformly random round of
// [1, maxRound].
func UniformRandomSchedule(n, maxRound int, seed uint64) []int {
	if maxRound < 1 {
		maxRound = 1
	}
	s := prf.Make(seed, -2, 0, prf.PurposeAdversary)
	sched := make([]int, n)
	for v := range sched {
		sched[v] = 1 + s.Intn(maxRound)
	}
	return sched
}
