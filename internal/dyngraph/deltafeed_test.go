package dyngraph

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dynlocal/internal/graph"
)

// The delta feed (ObserveEdgeDelta) must match the direct Definition 2.1
// computation (directWindows) over schedules with staggered wake-ups, T
// boundary rounds and edges flapping on the expiry boundary: the
// materialized window graphs and core every round, and the emitted Deltas
// must fold back into exactly those sets (deltaMirror).

// deltaSchedule maintains a mutable edge set over awake nodes and yields
// consistent (adds, removes, graph) rounds.
type deltaSchedule struct {
	n       int
	present map[graph.EdgeKey]bool
	awake   []bool
}

func newDeltaSchedule(n int) *deltaSchedule {
	return &deltaSchedule{n: n, present: make(map[graph.EdgeKey]bool), awake: make([]bool, n)}
}

// toggle flips edge {u,v} into adds or removes.
func (s *deltaSchedule) round(toggles []graph.EdgeKey) (adds, removes []graph.EdgeKey, g *graph.Graph) {
	seen := make(map[graph.EdgeKey]bool)
	for _, k := range toggles {
		if seen[k] {
			continue
		}
		seen[k] = true
		if s.present[k] {
			delete(s.present, k)
			removes = append(removes, k)
		} else {
			u, v := k.Nodes()
			if !s.awake[u] || !s.awake[v] {
				continue
			}
			s.present[k] = true
			adds = append(adds, k)
		}
	}
	sortEdgeKeys(adds)
	sortEdgeKeys(removes)
	keys := make([]graph.EdgeKey, 0, len(s.present))
	for k := range s.present {
		keys = append(keys, k)
	}
	sortEdgeKeys(keys)
	return adds, removes, graph.FromSortedEdges(s.n, keys)
}

func sortEdgeKeys(ks []graph.EdgeKey) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func copyDelta(d *Delta) Delta {
	return Delta{
		Round:        d.Round,
		CoreEntered:  append([]graph.NodeID(nil), d.CoreEntered...),
		CoreLeft:     append([]graph.NodeID(nil), d.CoreLeft...),
		InterAdded:   append([]graph.EdgeKey(nil), d.InterAdded...),
		InterRemoved: append([]graph.EdgeKey(nil), d.InterRemoved...),
		UnionAdded:   append([]graph.EdgeKey(nil), d.UnionAdded...),
		UnionRemoved: append([]graph.EdgeKey(nil), d.UnionRemoved...),
	}
}

// directCheck follows a delta-fed window alongside the Definition 2.1
// reference: it records every round graph and wake round and compares the
// window's materialized graphs and core with directWindows and the wake
// history, and the emitted Delta with the folded-sets mirror.
type directCheck struct {
	t       int
	history []*graph.Graph
	wokeAt  []int
	mirror  *deltaMirror
}

func newDirectCheck(t, n int) *directCheck {
	return &directCheck{t: t, wokeAt: make([]int, n), mirror: newDeltaMirror()}
}

func (c *directCheck) round(tb testing.TB, w *Window, d *Delta, g *graph.Graph, wake []graph.NodeID) {
	tb.Helper()
	c.history = append(c.history, g)
	r := len(c.history)
	if d.Round != r {
		tb.Fatalf("delta round %d, want %d", d.Round, r)
	}
	for _, v := range wake {
		if c.wokeAt[v] == 0 {
			c.wokeAt[v] = r
		}
	}
	wantInter, wantUnion := directWindows(c.history, c.t)
	if !w.IntersectionGraph().Equal(wantInter) {
		tb.Fatalf("round %d: intersection graph diverges from Definition 2.1", r)
	}
	if !w.UnionGraph().Equal(wantUnion) {
		tb.Fatalf("round %d: union graph diverges from Definition 2.1", r)
	}
	var wantCore []graph.NodeID
	for v, at := range c.wokeAt {
		if at != 0 && at <= r-c.t+1 {
			wantCore = append(wantCore, graph.NodeID(v))
		}
	}
	if got := w.CoreNodes(); !reflect.DeepEqual(got, wantCore) {
		tb.Fatalf("round %d: core %v, want %v", r, got, wantCore)
	}
	c.mirror.apply(tb, d)
	c.mirror.check(tb, w)
}

// TestWindowDeltaFeedMatchesScanFeed crosses window sizes (including the
// T=1 boundary where arrival and expiry collapse into the same round) with
// staggered wake-ups and churn-heavy schedules.
func TestWindowDeltaFeedMatchesScanFeed(t *testing.T) {
	for _, T := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("T=%d", T), func(t *testing.T) {
			const n = 20
			s := wstream(uint64(40 + T))
			sched := newDeltaSchedule(n)
			w := NewWindow(T, n)
			ref := newDirectCheck(T, n)
			for round := 1; round <= 6*T+12; round++ {
				// Wake four nodes per round until all are awake — core
				// arrivals then straddle several T boundaries.
				var wake []graph.NodeID
				for i := 0; i < 4; i++ {
					v := graph.NodeID((round-1)*4 + i)
					if int(v) < n {
						wake = append(wake, v)
						sched.awake[v] = true
					}
				}
				var toggles []graph.EdgeKey
				for i := 0; i < 3+s.Intn(8); i++ {
					u := graph.NodeID(s.Intn(n))
					v := graph.NodeID(s.Intn(n))
					if u != v {
						toggles = append(toggles, graph.MakeEdgeKey(u, v))
					}
				}
				adds, removes, g := sched.round(toggles)
				ref.round(t, w, w.ObserveEdgeDelta(adds, removes, wake), g, wake)
			}
		})
	}
}

// TestWindowDeltaFeedExpiryBoundary flaps a single edge so that its
// removal, re-addition and union expiry land exactly on ring-slot reuse
// rounds.
func TestWindowDeltaFeedExpiryBoundary(t *testing.T) {
	const n = 4
	const T = 3
	k := graph.MakeEdgeKey(0, 1)
	addsOf := func(on bool) ([]graph.EdgeKey, []graph.EdgeKey) {
		if on {
			return []graph.EdgeKey{k}, nil
		}
		return nil, []graph.EdgeKey{k}
	}
	// Pattern: on, off, on, off, off, off (expire), on, on, on (inter).
	pattern := []bool{true, false, true, false, false, false, true, true, true, true}
	w := NewWindow(T, n)
	ref := newDirectCheck(T, n)
	prevOn := false
	for i, on := range pattern {
		wake := []graph.NodeID{}
		if i == 0 {
			wake = []graph.NodeID{0, 1, 2, 3}
		}
		var g *graph.Graph
		if on {
			g = graph.FromEdges(n, []graph.EdgeKey{k})
		} else {
			g = graph.Empty(n)
		}
		var adds, removes []graph.EdgeKey
		if on != prevOn {
			adds, removes = addsOf(on)
		}
		prevOn = on
		ref.round(t, w, w.ObserveEdgeDelta(adds, removes, wake), g, wake)
	}
}

// TestWindowDeltaFeedValidation pins the delta feed's input checks.
func TestWindowDeltaFeedValidation(t *testing.T) {
	mk := func() *Window {
		w := NewWindow(2, 4)
		w.ObserveEdgeDelta([]graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, nil, []graph.NodeID{0, 1})
		return w
	}
	cases := []struct {
		name string
		run  func(w *Window)
	}{
		{"sleeping-endpoint", func(w *Window) {
			w.ObserveEdgeDelta([]graph.EdgeKey{graph.MakeEdgeKey(2, 3)}, nil, nil)
		}},
		{"add-present", func(w *Window) {
			w.ObserveEdgeDelta([]graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, nil, nil)
		}},
		{"remove-absent", func(w *Window) {
			w.ObserveEdgeDelta(nil, []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}, nil)
		}},
		{"adds-unsorted", func(w *Window) {
			w.ObserveEdgeDelta([]graph.EdgeKey{graph.MakeEdgeKey(0, 3), graph.MakeEdgeKey(0, 2)}, nil, []graph.NodeID{2, 3})
		}},
		{"key-out-of-range", func(w *Window) {
			w.ObserveEdgeDelta([]graph.EdgeKey{graph.MakeEdgeKey(1, 9)}, nil, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.run(mk())
		})
	}
}

// FuzzWindowDeltaFeed interprets fuzz bytes as a toggle/wake schedule over
// a small universe and requires the delta-fed window to agree with the
// Definition 2.1 reference on the materialized windows and core, and its
// emitted Deltas to fold back into them, for fuzzer-chosen window sizes.
func FuzzWindowDeltaFeed(f *testing.F) {
	f.Add(uint8(3), []byte{0x01, 0x12, 0x23, 0x05, 0x12, 0xff, 0x30})
	f.Add(uint8(1), []byte{0x10, 0x10, 0x10})
	f.Add(uint8(8), bytes.Repeat([]byte{0x21, 0x43, 0x07}, 20))
	f.Fuzz(func(t *testing.T, tRaw uint8, data []byte) {
		const n = 8
		T := int(tRaw%8) + 1
		sched := newDeltaSchedule(n)
		w := NewWindow(T, n)
		ref := newDirectCheck(T, n)
		pos := 0
		for round := 1; round <= 24 && pos < len(data); round++ {
			var wake []graph.NodeID
			var toggles []graph.EdgeKey
			// Consume up to 4 bytes per round: high nibble / low nibble are
			// node ids; equal nibbles wake the node instead of toggling.
			for b := 0; b < 4 && pos < len(data); b++ {
				u := graph.NodeID(data[pos] >> 4 & 7)
				v := graph.NodeID(data[pos] & 7)
				pos++
				if u == v {
					if !sched.awake[u] {
						sched.awake[u] = true
						wake = append(wake, u)
					}
					continue
				}
				toggles = append(toggles, graph.MakeEdgeKey(u, v))
			}
			adds, removes, g := sched.round(toggles)
			ref.round(t, w, w.ObserveEdgeDelta(adds, removes, wake), g, wake)
		}
	})
}
