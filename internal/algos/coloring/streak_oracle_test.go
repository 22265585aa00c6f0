package coloring

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// refDColor is the former DColor node, whose intersection-graph filter
// looked every sender up in a lifetime map[NodeID]int32. It survives only
// as the differential oracle of the sorted-table merge walk.
type refDColor struct {
	v         graph.NodeID
	out       problems.Value
	pal       palette
	streak    map[graph.NodeID]int32
	age       int32
	started   bool
	tentative int64
}

func (d *refDColor) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	if !d.started {
		return append(buf, engine.SubMsg{Kind: KindStart, A: int64(d.out)})
	}
	if d.out != problems.Bot {
		return append(buf, engine.SubMsg{Kind: KindFixed, A: int64(d.out)})
	}
	s := ctx.Stream(prfTentative)
	d.tentative = d.pal.pick(&s)
	return append(buf, engine.SubMsg{Kind: KindTentative, A: d.tentative})
}

func (d *refDColor) Process(in []engine.Incoming, deg int) {
	if !d.started {
		d.started = true
		d.streak = make(map[graph.NodeID]int32, len(in))
		d.age = 1
		d.pal = newPalette(deg + 1)
		for _, m := range in {
			d.streak[m.From] = 1
			if d.out == problems.Bot && m.M.Kind == KindStart && m.M.A != 0 {
				d.pal.remove(m.M.A)
			}
		}
		return
	}
	wasUncolored := d.out == problems.Bot
	prev := d.age
	d.age++
	tentativeClash := false
	for _, m := range in {
		if d.streak[m.From] != prev {
			continue
		}
		d.streak[m.From] = prev + 1
		switch m.M.Kind {
		case KindFixed:
			if d.pal.contains(m.M.A) {
				d.pal.remove(m.M.A)
			}
		case KindTentative:
			if m.M.A == d.tentative {
				tentativeClash = true
			}
		}
	}
	if wasUncolored && d.pal.contains(d.tentative) && !tentativeClash {
		d.out = problems.Value(d.tentative)
	}
}

// inboxGen produces a node's randomized multi-round sender sets: a fixed
// candidate neighborhood whose members drop out and re-appear at random,
// listed in ascending order, occasionally with a repeated sender.
type inboxGen struct {
	s       *prf.Stream
	cands   []graph.NodeID
	present []bool
}

func newInboxGen(s *prf.Stream, n int, self graph.NodeID) *inboxGen {
	g := &inboxGen{s: s}
	for len(g.cands) < 12 {
		u := graph.NodeID(s.Intn(n))
		if u != self && !slices.Contains(g.cands, u) {
			g.cands = append(g.cands, u)
		}
	}
	slices.Sort(g.cands)
	g.present = make([]bool, len(g.cands))
	for i := range g.present {
		g.present[i] = s.Intn(4) != 0
	}
	return g
}

// senders advances one round and returns this round's senders.
func (g *inboxGen) senders() []graph.NodeID {
	var out []graph.NodeID
	for i, u := range g.cands {
		if g.s.Intn(5) == 0 {
			g.present[i] = !g.present[i]
		}
		if g.present[i] {
			out = append(out, u)
			if g.s.Intn(16) == 0 {
				out = append(out, u)
			}
		}
	}
	return out
}

// streakPairs flattens a DColor node's table for comparison.
func streakPairs(d *dcolorNode) map[graph.NodeID]int32 {
	if !d.streak.Started() {
		return nil
	}
	m := make(map[graph.NodeID]int32, d.streak.Len())
	for i := 0; i < d.streak.Len(); i++ {
		id, s := d.streak.Entry(i)
		m[id] = s
	}
	return m
}

// TestDColorStreakTableMatchesMapOracle drives the sorted-table DColor
// and the former map-based one through identical randomized multi-round
// inboxes (ascending senders, random drop-outs and re-appearances) and
// requires identical broadcasts, streak state, palettes and outputs.
func TestDColorStreakTableMatchesMapOracle(t *testing.T) {
	const n = 64
	f := &DColorFactory{N: n}
	for trial := 0; trial < 300; trial++ {
		s := workload(uint64(1000 + trial))
		self := graph.NodeID(s.Intn(n))
		gen := newInboxGen(s, n, self)
		input := problems.Bot
		if s.Intn(3) == 0 {
			input = problems.Value(1 + s.Intn(4))
		}
		fixed := make(map[graph.NodeID]int64) // sender's permanent color
		for _, u := range gen.cands {
			if s.Intn(3) == 0 {
				fixed[u] = int64(1 + s.Intn(6))
			}
		}
		got := f.NewNode(self).(*dcolorNode)
		want := &refDColor{v: self}
		ctx := &engine.Ctx{Node: self, Seed: uint64(trial)}
		got.Start(ctx, input)
		want.out = input
		for r := 1; r <= 40; r++ {
			ctx.Round = r
			gb := got.Broadcast(ctx, nil)
			wb := want.Broadcast(ctx, nil)
			if !slices.Equal(gb, wb) {
				t.Fatalf("trial %d round %d: broadcast %v, oracle %v", trial, r, gb, wb)
			}
			// Senders behave like DColor nodes: a start value in round 1,
			// then tentatives until they fix one color for good (their
			// start value, if they had one), so an intersection neighbor
			// removes at most one color and the palette never runs dry
			// (Lemma 4.2).
			var in []engine.Incoming
			for _, u := range gen.senders() {
				m := engine.SubMsg{Kind: KindTentative, A: int64(1 + s.Intn(8))}
				switch c := fixed[u]; {
				case r == 1:
					m = engine.SubMsg{Kind: KindStart, A: c}
				case c != 0:
					m = engine.SubMsg{Kind: KindFixed, A: c}
				case s.Intn(4) == 0:
					fixed[u] = m.A
				}
				in = append(in, engine.Incoming{From: u, M: m})
			}
			deg := len(in) + s.Intn(3)
			got.Process(ctx, in, deg)
			want.Process(in, deg)
			if got.out != want.out || got.age != want.age || got.started != want.started || got.tentative != want.tentative {
				t.Fatalf("trial %d round %d: state (%d,%d,%v,%d), oracle (%d,%d,%v,%d)", trial, r,
					got.out, got.age, got.started, got.tentative, want.out, want.age, want.started, want.tentative)
			}
			if got.pal.size != want.pal.size || !slices.Equal(got.pal.words, want.pal.words) {
				t.Fatalf("trial %d round %d: palette %v/%d, oracle %v/%d", trial, r,
					got.pal.words, got.pal.size, want.pal.words, want.pal.size)
			}
			if gs := streakPairs(got); fmt.Sprint(gs) != fmt.Sprint(want.streak) {
				t.Fatalf("trial %d round %d: streaks %v, oracle %v", trial, r, gs, want.streak)
			}
		}
	}
}

// writeDColorState writes a DColor checkpoint section with a hand-made
// streak table (nil ids = no table).
func writeDColorState(t *testing.T, started bool, ids []graph.NodeID) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	w.Section(tagDColor)
	w.Varint(int64(problems.Bot))
	w.Bool(started)
	w.Varint(3)
	w.Varint(1)
	p := newPalette(4)
	savePalette(w, &p)
	w.Bool(ids != nil)
	if ids != nil {
		w.Int(len(ids))
		for _, id := range ids {
			w.Varint(int64(id))
			w.Varint(3)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDColorLoadStateRejects pins the restore-side validation of the
// streak table: the merge walk needs strictly ascending ids, and the
// table must exist exactly when the start round has run.
func TestDColorLoadStateRejects(t *testing.T) {
	f := &DColorFactory{N: 64}
	load := func(b []byte) error {
		r := ckpt.NewReader(bytes.NewReader(b))
		f.NewNode(7).(*dcolorNode).LoadState(r)
		if err := r.Err(); err != nil {
			return err
		}
		return r.Close()
	}
	if err := load(writeDColorState(t, true, []graph.NodeID{1, 4, 9})); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	if err := load(writeDColorState(t, true, []graph.NodeID{})); err != nil {
		t.Fatalf("valid empty table rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		started bool
		ids     []graph.NodeID
	}{
		"unsorted":              {true, []graph.NodeID{4, 1, 9}},
		"duplicate":             {true, []graph.NodeID{1, 4, 4, 9}},
		"negative-id":           {true, []graph.NodeID{-1, 4}},
		"table-before-start":    {false, []graph.NodeID{1, 4}},
		"missing-after-started": {true, nil},
	} {
		if err := load(writeDColorState(t, tc.started, tc.ids)); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}

// TestSColorProcessAllocatesNothing pins the in-place palette rebuild: a
// steady-state SColor round allocates nothing.
func TestSColorProcessAllocatesNothing(t *testing.T) {
	s := (&SColorFactory{N: 64}).NewNode(3).(*scolorNode)
	ctx := &engine.Ctx{Node: 3, Seed: 1}
	s.Start(ctx, problems.Bot)
	in := []engine.Incoming{
		{From: 1, M: engine.SubMsg{Kind: KindFixed, A: 2}},
		{From: 5, M: engine.SubMsg{Kind: KindTentative, A: 1}},
		{From: 8, M: engine.SubMsg{Kind: KindTentative, A: 3}},
	}
	buf := make([]engine.SubMsg, 0, 4)
	round := func() {
		ctx.Round++
		buf = s.Broadcast(ctx, buf[:0])
		s.Process(ctx, in, len(in))
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("SColor round allocates %.1f times, want 0", allocs)
	}
}
