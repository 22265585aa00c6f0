package adversary

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// scriptInner plays a precomputed step list and then empty diffs.
type scriptInner struct{ steps []Step }

func (s scriptInner) Step(v View) Step {
	if r := v.Round(); r <= len(s.steps) {
		return s.steps[r-1]
	}
	return Step{}
}

// toggleScript decodes an inner delta sequence: byte 0xFF ends a round,
// every other pair of bytes toggles the edge {a mod n, b mod n}. Each
// round's step is the exact sorted diff of the toggled edge sets.
func toggleScript(n int, toggles []byte) []Step {
	cur := make(map[graph.EdgeKey]bool)
	var steps []Step
	flush := func(next map[graph.EdgeKey]bool) {
		var st Step
		for k := range next {
			if !cur[k] {
				st.EdgeAdds = append(st.EdgeAdds, k)
			}
		}
		for k := range cur {
			if !next[k] {
				st.EdgeRemoves = append(st.EdgeRemoves, k)
			}
		}
		slices.Sort(st.EdgeAdds)
		slices.Sort(st.EdgeRemoves)
		steps = append(steps, st)
		cur = next
	}
	next := maps.Clone(cur)
	for i := 0; i < len(toggles) && len(steps) < 16; i++ {
		if toggles[i] == 0xFF {
			flush(next)
			next = maps.Clone(cur)
			continue
		}
		if i+1 >= len(toggles) || toggles[i+1] == 0xFF {
			continue
		}
		u, v := graph.NodeID(int(toggles[i])%n), graph.NodeID(int(toggles[i+1])%n)
		i++
		if u == v {
			continue
		}
		k := graph.MakeEdgeKey(u, v)
		next[k] = !next[k]
		if !next[k] {
			delete(next, k)
		}
	}
	flush(next)
	return steps
}

// FuzzWrapperDiff is the differential test of the wrapper diffs. Random
// inner delta sequences drive Wakeup (over a wake schedule), LocalStatic
// (over a protected set) and ConflictInjector (over delayed outputs);
// every round the folded wrapper diff — folding panics on any breach of
// the Step contract — must equal the wrapper's topology rebuilt from
// scratch out of the inner topology, which is how the wrappers computed
// it when they materialized graphs.
func FuzzWrapperDiff(f *testing.F) {
	ff := byte(0xFF)
	// Nodes 2 and 3 wake together in round 2 over an edge present since
	// round 1.
	f.Add(uint8(6), []byte{1, 1, 2, 2, 3, 3}, uint16(0), uint8(0), uint8(1),
		[]byte{2, 3, 0, 1, ff, 4, 5, ff, ff}, []byte{1})
	// The inner adversary removes {4,5} while node 5 still sleeps.
	f.Add(uint8(6), []byte{1, 1, 1, 1, 1, 4}, uint16(0), uint8(0), uint8(2),
		[]byte{4, 5, 0, 5, ff, 4, 5, ff, 4, 5, ff, ff, ff}, []byte{1})
	// Four nodes with one shared output: injections cover every pair
	// quickly while the inner adversary keeps toggling the same pairs,
	// so it re-adds and removes injected edges.
	f.Add(uint8(4), []byte{1, 1, 1, 1}, uint16(0), uint8(0), uint8(3),
		[]byte{0, 1, 2, 3, ff, 0, 1, 0, 2, ff, 0, 1, 1, 2, ff, 0, 1, 0, 2, 1, 3, ff, 2, 3, ff, 0, 3, ff}, []byte{1})
	// Frozen zone around node 0 (α = 1): the inner adversary adds and
	// removes edges inside, at the border of and outside the zone.
	f.Add(uint8(8), []byte{1}, uint16(1), uint8(1), uint8(4),
		[]byte{0, 1, 1, 2, 5, 6, ff, 0, 1, 0, 7, ff, 1, 2, 6, 7, 3, 4, ff, 0, 7, ff}, []byte{1, 2})
	// Frozen zone {7} (α = 0): inner adds and removes of edges whose
	// larger endpoint alone is frozen.
	f.Add(uint8(8), []byte{1}, uint16(1<<7), uint8(0), uint8(5),
		[]byte{2, 7, 3, 7, 2, 3, ff, 2, 7, ff, 3, 7, 2, 3, ff}, []byte{1})

	f.Fuzz(func(t *testing.T, nb uint8, sched []byte, protected uint16, alpha, baseSeed uint8, toggles, outs []byte) {
		n := 2 + int(nb)%14
		steps := toggleScript(n, toggles)
		rounds := len(steps) + 2

		schedule := make([]int, n)
		for v := range schedule {
			schedule[v] = 1
			if v < len(sched) {
				schedule[v] = int(sched[v]) % 8 // 0: never wakes
			}
		}
		base := graph.GNP(n, 0.3, prf.NewStream(uint64(baseSeed), 0, 0, prf.PurposeWorkload))
		var prot []graph.NodeID
		for v := 0; v < n; v++ {
			if protected>>v&1 == 1 {
				prot = append(prot, graph.NodeID(v))
			}
		}
		wk := &Wakeup{Inner: scriptInner{steps}, Schedule: schedule}
		ls := &LocalStatic{Inner: scriptInner{steps}, Base: base, Protected: prot, Alpha: int(alpha) % 3}
		ci := &ConflictInjector{Inner: scriptInner{steps}, Rate: 3, MinRound: 1, Seed: uint64(baseSeed)}
		frozen := make([]bool, n)
		for _, v := range ls.FrozenZone() {
			frozen[v] = true
		}

		vw, vl, vc := newFakeView(n), newFakeView(n), newFakeView(n)
		inner := make(map[graph.EdgeKey]bool)
		injected := make(map[graph.EdgeKey]bool)
		for r := 1; r <= rounds; r++ {
			if r <= len(steps) {
				for _, k := range steps[r-1].EdgeAdds {
					inner[k] = true
				}
				for _, k := range steps[r-1].EdgeRemoves {
					delete(inner, k)
				}
			}

			vw.play(wk)
			want := make(map[graph.EdgeKey]bool)
			for k := range inner {
				if u, v := k.Nodes(); awakeBy(schedule[u], r) && awakeBy(schedule[v], r) {
					want[k] = true
				}
			}
			checkFolded(t, "wakeup", r, vw.edges, want)

			vl.play(ls)
			want = make(map[graph.EdgeKey]bool)
			for k := range inner {
				if u, v := k.Nodes(); !frozen[u] && !frozen[v] {
					want[k] = true
				}
			}
			for _, k := range base.EdgeKeys() {
				if u, v := k.Nodes(); frozen[u] || frozen[v] {
					want[k] = true
				}
			}
			checkFolded(t, "local-static", r, vl.edges, want)

			vc.delayed = make([]problems.Value, n)
			for v := range vc.delayed {
				if len(outs) > 0 {
					vc.delayed[v] = problems.Value(outs[(r*n+v)%len(outs)] % 3)
				}
			}
			logged := len(ci.Injections)
			vc.play(ci)
			for _, inj := range ci.Injections[logged:] {
				if inner[inj.Edge] || injected[inj.Edge] {
					t.Fatalf("round %d: injected %v, already played", r, inj.Edge)
				}
				injected[inj.Edge] = true
			}
			want = maps.Clone(inner)
			maps.Copy(want, injected)
			checkFolded(t, "conflict-injector", r, vc.edges, want)
		}
	})
}

// awakeBy reports whether a node scheduled for round s is awake in round r.
func awakeBy(s, r int) bool { return s >= 1 && s <= r }

func checkFolded(t *testing.T, name string, r int, got, want map[graph.EdgeKey]bool) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Fatalf("%s round %d: folded diffs give %v, rebuilt topology is %v", name, r, sortedSet(got), sortedSet(want))
	}
}

func sortedSet(s map[graph.EdgeKey]bool) string {
	keys := make([]graph.EdgeKey, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return fmt.Sprint(keys)
}
