package adversary

import (
	"fmt"
	"slices"
	"testing"

	"dynlocal/internal/dyngraph"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// fakeView is a scriptable View for adversary unit tests. Its play helper
// folds each step's diff into the view's own edge set — panicking on any
// breach of the Step contract — and rebuilds the round's graph from it,
// so tests can assert on whole graphs.
type fakeView struct {
	round   int
	n       int
	awake   []bool
	delayed []problems.Value
	edges   map[graph.EdgeKey]bool // topology folded from the played diffs
}

func (f *fakeView) Round() int { return f.round }
func (f *fakeView) N() int     { return f.n }
func (f *fakeView) Awake(v graph.NodeID) bool {
	if f.awake == nil {
		return true
	}
	return f.awake[v]
}
func (f *fakeView) DelayedOutputs() []problems.Value { return f.delayed }

func newFakeView(n int) *fakeView {
	return &fakeView{round: 0, n: n, edges: make(map[graph.EdgeKey]bool)}
}

// played is a step together with the graph its diff produced.
type played struct {
	Step
	G *graph.Graph
}

// play advances the adversary one round and returns the step with the
// round's graph.
func (f *fakeView) play(a Adversary) played {
	f.round++
	st := a.Step(f)
	return played{st, f.fold(st)}
}

// fold applies a step's diff to the edge set, checking the Step contract
// (strictly ascending keys inside [0, n), adds absent, removes present),
// and returns the resulting graph.
func (f *fakeView) fold(st Step) *graph.Graph {
	for _, diff := range []struct {
		keys  []graph.EdgeKey
		added bool
	}{{st.EdgeAdds, true}, {st.EdgeRemoves, false}} {
		for i, k := range diff.keys {
			if i > 0 && diff.keys[i-1] >= k {
				panic(fmt.Sprintf("round %d: diff not strictly ascending at %v", f.round, k))
			}
			if u, v := k.Nodes(); u < 0 || u >= v || int(v) >= f.n {
				panic(fmt.Sprintf("round %d: edge %v outside [0,%d)", f.round, k, f.n))
			}
			if f.edges[k] == diff.added {
				panic(fmt.Sprintf("round %d: diff entry %v (added=%v) does not change the topology", f.round, k, diff.added))
			}
			if diff.added {
				f.edges[k] = true
			} else {
				delete(f.edges, k)
			}
		}
	}
	keys := make([]graph.EdgeKey, 0, len(f.edges))
	for k := range f.edges {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return graph.FromSortedEdges(f.n, keys)
}

func TestStaticAdversary(t *testing.T) {
	g := graph.Cycle(5)
	adv := Static{G: g}
	v := newFakeView(5)
	st := v.play(adv)
	if len(st.Wake) != 5 {
		t.Fatalf("round 1 wake = %v", st.Wake)
	}
	if !st.G.Equal(g) {
		t.Fatal("round 1 graph differs")
	}
	st = v.play(adv)
	if len(st.Wake) != 0 || !st.G.Equal(g) {
		t.Fatal("round 2 step wrong")
	}
}

func TestAlternator(t *testing.T) {
	a, b := graph.Path(4), graph.Cycle(4)
	adv := Alternator{A: a, B: b, Period: 2}
	v := newFakeView(4)
	want := []*graph.Graph{a, a, b, b, a, a, b}
	for i, wg := range want {
		st := v.play(adv)
		if !st.G.Equal(wg) {
			t.Fatalf("round %d: wrong phase graph", i+1)
		}
	}
	// Period 0 behaves as 1.
	adv0 := Alternator{A: a, B: b}
	v0 := newFakeView(4)
	if st := v0.play(adv0); !st.G.Equal(a) {
		t.Fatal("period-0 round 1 should play A")
	}
	if st := v0.play(adv0); !st.G.Equal(b) {
		t.Fatal("period-0 round 2 should play B")
	}
}

func TestScriptedReplaysTrace(t *testing.T) {
	const n = 10
	s := prf.NewStream(3, 0, 0, prf.PurposeWorkload)
	tr := dyngraph.NewTrace(n)
	var prev *graph.Graph
	var graphs []*graph.Graph
	for r := 1; r <= 5; r++ {
		g := graph.GNP(n, 0.3, s)
		var wake []graph.NodeID
		if r == 1 {
			wake = AllNodes(n)
		}
		tr.Append(prev, g, wake)
		graphs = append(graphs, g)
		prev = g
	}
	adv := NewScripted(tr)
	v := newFakeView(n)
	for r := 1; r <= 5; r++ {
		st := v.play(adv)
		if !st.G.Equal(graphs[r-1]) {
			t.Fatalf("round %d replay mismatch", r)
		}
	}
	// Past the end: keeps playing the last graph.
	st := v.play(adv)
	if !st.G.Equal(graphs[4]) {
		t.Fatal("post-trace round should repeat last graph")
	}
}

func TestChurnMaintainsEdgeBudget(t *testing.T) {
	base := graph.GNP(40, 0.2, prf.NewStream(1, 0, 0, prf.PurposeWorkload))
	adv := &Churn{Base: base, Add: 3, Del: 3, Seed: 42}
	v := newFakeView(40)
	st := v.play(adv)
	if st.G.M() != base.M() {
		t.Fatalf("round 1 should play the base graph: %d vs %d", st.G.M(), base.M())
	}
	prevEdges := st.G.M()
	for r := 2; r <= 20; r++ {
		st = v.play(adv)
		diff := st.G.M() - prevEdges
		// Del removes up to 3, Add inserts up to 3 (collisions allowed).
		if diff < -3 || diff > 3 {
			t.Fatalf("round %d: edge count jumped by %d", r, diff)
		}
		prevEdges = st.G.M()
	}
}

func TestChurnActuallyChurns(t *testing.T) {
	base := graph.GNP(30, 0.2, prf.NewStream(2, 0, 0, prf.PurposeWorkload))
	adv := &Churn{Base: base, Add: 5, Del: 5, Seed: 7}
	v := newFakeView(30)
	first := v.play(adv).G
	tenth := first
	for r := 2; r <= 10; r++ {
		tenth = v.play(adv).G
	}
	if first.Equal(tenth) {
		t.Fatal("graph did not change after 9 churn rounds")
	}
}

func TestEdgeMarkovConfinedToFootprint(t *testing.T) {
	foot := graph.Cycle(12)
	adv := &EdgeMarkov{Footprint: foot, POn: 0.5, POff: 0.5, Seed: 9}
	v := newFakeView(12)
	for r := 1; r <= 25; r++ {
		st := v.play(adv)
		st.G.EachEdge(func(x, y graph.NodeID) {
			if !foot.HasEdge(x, y) {
				t.Fatalf("round %d: edge {%d,%d} outside footprint", r, x, y)
			}
		})
	}
}

func TestEdgeMarkovFlips(t *testing.T) {
	foot := graph.Complete(8)
	adv := &EdgeMarkov{Footprint: foot, POn: 0.3, POff: 0.3, Seed: 11}
	v := newFakeView(8)
	g1 := v.play(adv).G
	if g1.M() != foot.M() {
		t.Fatal("round 1 should start with footprint on")
	}
	g2 := v.play(adv).G
	if g1.Equal(g2) {
		t.Fatal("no flips at p=0.3 over 28 edges (astronomically unlikely)")
	}
}

func TestLocalStaticFreezesBall(t *testing.T) {
	s := prf.NewStream(5, 0, 0, prf.PurposeWorkload)
	base := graph.GNP(40, 0.15, s)
	const protectedNode = 7
	const alpha = 2
	adv := &LocalStatic{
		Inner:     &Churn{Base: base, Add: 8, Del: 8, Seed: 13},
		Base:      base,
		Protected: []graph.NodeID{protectedNode},
		Alpha:     alpha,
	}
	v := newFakeView(40)
	first := v.play(adv).G
	if !graph.BallStatic(base, first, protectedNode, alpha) {
		t.Fatal("round 1 ball differs from base")
	}
	changedElsewhere := false
	prev := first
	for r := 2; r <= 30; r++ {
		g := v.play(adv).G
		if !graph.BallStatic(prev, g, protectedNode, alpha) {
			t.Fatalf("round %d: protected %d-ball changed", r, alpha)
		}
		if !g.Equal(prev) {
			changedElsewhere = true
		}
		prev = g
	}
	if !changedElsewhere {
		t.Fatal("inner churn had no effect at all (freeze too broad?)")
	}
}

func TestLocalStaticWakesFrozenZoneFirst(t *testing.T) {
	base := graph.Path(6)
	adv := &LocalStatic{
		Inner:     Static{G: base},
		Base:      base,
		Protected: []graph.NodeID{0},
		Alpha:     1,
	}
	v := newFakeView(6)
	st := v.play(adv)
	wakeSet := make(map[graph.NodeID]bool)
	for _, w := range st.Wake {
		wakeSet[w] = true
	}
	if !wakeSet[0] || !wakeSet[1] {
		t.Fatalf("frozen zone not woken in round 1: %v", st.Wake)
	}
}

func TestConflictInjectorTargetsEqualOutputs(t *testing.T) {
	base := graph.Empty(6)
	adv := &ConflictInjector{Inner: Static{G: base}, Rate: 4, MinRound: 2, Seed: 3}
	v := newFakeView(6)
	v.play(adv) // round 1: no delayed outputs yet
	// Outputs: nodes 0,1,2 share color 5; nodes 3,4 share color 9.
	v.delayed = []problems.Value{5, 5, 5, 9, 9, problems.Bot}
	st := v.play(adv)
	if st.G.M() == 0 {
		t.Fatal("no conflict edges injected")
	}
	st.G.EachEdge(func(x, y graph.NodeID) {
		if v.delayed[x] != v.delayed[y] || v.delayed[x] == problems.Bot {
			t.Fatalf("injected edge {%d,%d} between different outputs", x, y)
		}
	})
	if len(adv.Injections) != st.G.M() {
		t.Fatalf("injection log has %d entries for %d edges", len(adv.Injections), st.G.M())
	}
	// Injected edges persist.
	prevM := st.G.M()
	v.delayed = []problems.Value{1, 2, 3, 4, 6, 7} // no duplicates now
	st = v.play(adv)
	if st.G.M() != prevM {
		t.Fatalf("injected edges did not persist: %d -> %d", prevM, st.G.M())
	}
}

// TestConflictInjectorDeterministic pins the fix for a real same-seed
// nondeterminism bug: candidate groups used to be collected by ranging
// over a map, so the PRF draws indexed a differently-ordered slice on
// every run. Two fresh injectors with the same seed and view sequence
// must log identical injections. Several duplicate-output groups per
// round keep the (now sorted) candidate ordering load-bearing.
func TestConflictInjectorDeterministic(t *testing.T) {
	run := func() []Injection {
		adv := &ConflictInjector{Inner: Static{G: graph.Empty(12)}, Rate: 6, MinRound: 1, Seed: 11}
		v := newFakeView(12)
		for r := 0; r < 4; r++ {
			v.delayed = []problems.Value{5, 5, 5, 9, 9, 9, 2, 2, 7, 7, 7, problems.Bot}
			if r%2 == 1 {
				v.delayed = []problems.Value{1, 1, 4, 4, 4, 4, 8, 8, 8, 3, 3, 3}
			}
			v.play(adv)
		}
		return adv.Injections
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no injections logged; test exercises nothing")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("same-seed runs diverged:\n  %v\nvs\n  %v", a, b)
	}
}

func TestConflictInjectorSkipsSleepingNodes(t *testing.T) {
	base := graph.Empty(4)
	adv := &ConflictInjector{Inner: Static{G: base}, Rate: 8, MinRound: 1, Seed: 5}
	v := newFakeView(4)
	v.awake = []bool{true, false, true, false}
	v.delayed = []problems.Value{5, 5, 5, 5}
	st := v.play(adv)
	st.G.EachEdge(func(x, y graph.NodeID) {
		if !v.awake[x] || !v.awake[y] {
			t.Fatalf("edge {%d,%d} touches sleeping node", x, y)
		}
	})
}

func TestWakeupSchedule(t *testing.T) {
	inner := Static{G: graph.Complete(6)}
	sched := StaggeredSchedule(6, 2) // wake {0,1} r1, {2,3} r2, {4,5} r3
	adv := &Wakeup{Inner: inner, Schedule: sched}
	v := newFakeView(6)
	st := v.play(adv)
	if len(st.Wake) != 2 || st.Wake[0] != 0 || st.Wake[1] != 1 {
		t.Fatalf("round 1 wake = %v", st.Wake)
	}
	if st.G.M() != 1 { // only {0,1} possible
		t.Fatalf("round 1 edges = %d, want 1", st.G.M())
	}
	st = v.play(adv)
	if st.G.M() != 6 { // K4 among {0,1,2,3}
		t.Fatalf("round 2 edges = %d, want 6", st.G.M())
	}
	st = v.play(adv)
	if st.G.M() != 15 { // K6
		t.Fatalf("round 3 edges = %d, want 15", st.G.M())
	}
}

func TestUniformRandomScheduleBounds(t *testing.T) {
	sched := UniformRandomSchedule(100, 7, 3)
	for v, r := range sched {
		if r < 1 || r > 7 {
			t.Fatalf("node %d scheduled at %d", v, r)
		}
	}
	// Not all in the same round (overwhelmingly likely).
	same := true
	for _, r := range sched[1:] {
		if r != sched[0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("all nodes scheduled in one round")
	}
}

func TestLubyStallerDeletesWinnerEdges(t *testing.T) {
	const seed = 99
	base := graph.Complete(6)
	adv := &LubyStaller{Base: base, Seed: seed, Purpose: prf.PurposeLubyAlpha}
	v := newFakeView(6)
	st := v.play(adv)
	// Round 1: all nodes undecided. The α-minimum over all nodes is a
	// winner; in K6 the fixpoint deletes edges until no undecided node
	// has an undecided neighbor over which it is minimal. In a clique the
	// global minimum is the only winner each iteration, so iterations
	// peel minima one by one: all edges end up deleted.
	if st.G.M() != 0 {
		t.Fatalf("round 1 on K6: %d edges survive, want 0 (cascading minima)", st.G.M())
	}
	if adv.Deleted != base.M() {
		t.Fatalf("Deleted = %d, want %d", adv.Deleted, base.M())
	}
}

func TestLubyStallerLeavesDecidedAlone(t *testing.T) {
	base := graph.Path(4)
	adv := &LubyStaller{Base: base, Seed: 1, Purpose: prf.PurposeLubyAlpha}
	v := newFakeView(4)
	// All nodes decided: no undecided-undecided edges, nothing to delete.
	v.delayed = []problems.Value{problems.InMIS, problems.Dominated, problems.InMIS, problems.Dominated}
	st := v.play(adv)
	if st.G.M() != base.M() {
		t.Fatalf("edges deleted despite all nodes decided: %d vs %d", st.G.M(), base.M())
	}
}

func TestAllNodes(t *testing.T) {
	all := AllNodes(4)
	if len(all) != 4 || all[0] != 0 || all[3] != 3 {
		t.Fatalf("AllNodes = %v", all)
	}
}

// TestDeltaStepsAreExactDiffs drives every adversary kind (plus wrappers
// over them) against churning delayed outputs and checks the Step
// contract: emitted diffs are strictly ascending, adds are absent from and
// removes present in the previous topology.
func TestDeltaStepsAreExactDiffs(t *testing.T) {
	const n = 28
	mkBase := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 0.2, prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	advs := map[string]func() Adversary{
		"static": func() Adversary { return Static{G: mkBase(10)} },
		"alternator": func() Adversary {
			return Alternator{A: mkBase(11), B: mkBase(12), Period: 2}
		},
		"churn": func() Adversary {
			return &Churn{Base: mkBase(1), Add: 4, Del: 4, Seed: 5}
		},
		"edge-markov": func() Adversary {
			return &EdgeMarkov{Footprint: mkBase(2), POn: 0.3, POff: 0.3, Seed: 6}
		},
		"local-static": func() Adversary {
			base := mkBase(3)
			return &LocalStatic{
				Inner:     &Churn{Base: base, Add: 6, Del: 6, Seed: 7},
				Base:      base,
				Protected: []graph.NodeID{2, 20},
				Alpha:     2,
			}
		},
		"local-static-over-luby-staller": func() Adversary {
			base := mkBase(4)
			return &LocalStatic{
				Inner:     &LubyStaller{Base: base, Seed: 8, Purpose: prf.PurposeLubyAlpha},
				Base:      base,
				Protected: []graph.NodeID{1},
				Alpha:     1,
			}
		},
		"wakeup": func() Adversary {
			return &Wakeup{
				Inner:    &Churn{Base: mkBase(13), Add: 6, Del: 6, Seed: 14},
				Schedule: UniformRandomSchedule(n, 8, 15),
			}
		},
		"conflict-injector": func() Adversary {
			return &ConflictInjector{
				Inner: &EdgeMarkov{Footprint: mkBase(16), POn: 0.4, POff: 0.4, Seed: 17},
				Rate:  5, MinRound: 2, Seed: 18,
			}
		},
		"scripted": func() Adversary {
			tr := dyngraph.NewTrace(n)
			s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
			var prev *graph.Graph
			for r := 1; r <= 6; r++ {
				g := graph.GNP(n, 0.2, s)
				var wake []graph.NodeID
				if r == 1 {
					wake = AllNodes(n)
				}
				tr.Append(prev, g, wake)
				prev = g
			}
			return NewScripted(tr)
		},
	}
	for name, mk := range advs {
		t.Run(name, func(t *testing.T) {
			adv := mk()
			v := newFakeView(n)
			outs := prf.NewStream(19, 0, 0, prf.PurposeWorkload)
			changes := 0
			for r := 1; r <= 12; r++ {
				// Few distinct values, so ConflictInjector finds equal pairs.
				v.delayed = make([]problems.Value, n)
				for i := range v.delayed {
					v.delayed[i] = problems.Value(outs.Intn(4))
				}
				st := v.play(adv) // panics on any breach of the contract
				changes += len(st.EdgeAdds) + len(st.EdgeRemoves)
			}
			if changes == 0 {
				t.Fatal("adversary emitted no edge changes")
			}
		})
	}
}

// TestScriptedDeltaNativePersistsFinalTopology pins the post-trace
// behavior of delta-native scripts: empty diffs keep the last graph.
func TestScriptedDeltaNativePersistsFinalTopology(t *testing.T) {
	const n = 8
	tr := dyngraph.NewTrace(n)
	g1 := graph.Path(n)
	tr.Append(nil, g1, AllNodes(n))
	adv := NewScripted(tr)
	v := newFakeView(n)
	if st := v.play(adv); !st.G.Equal(g1) {
		t.Fatal("round 1 mismatch")
	}
	for r := 2; r <= 4; r++ {
		st := v.play(adv)
		if st.G == nil || !st.G.Equal(g1) {
			t.Fatalf("round %d: final topology not persisted", r)
		}
		if len(st.EdgeAdds) != 0 || len(st.EdgeRemoves) != 0 {
			t.Fatalf("round %d: post-trace diffs not empty", r)
		}
	}
}
