package mis

import (
	"bytes"
	"slices"
	"testing"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// refDMis is the former DMis node, whose intersection-graph filter
// scanned parallel key/value slices linearly for every sender. It
// survives only as the differential oracle of the sorted-table merge
// walk.
type refDMis struct {
	v       graph.NodeID
	out     problems.Value
	streakK []graph.NodeID
	streakV []int32
	age     int
	provD   bool
	alpha   uint64
	mask    uint64
}

func (d *refDMis) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	switch d.out {
	case problems.InMIS:
		return append(buf, engine.SubMsg{Kind: KindMark})
	case problems.Bot:
		s := ctx.Stream(prf.PurposeLubyAlpha)
		d.alpha = s.Uint64() & d.mask
		return append(buf, engine.SubMsg{Kind: KindAlpha, A: int64(d.alpha)})
	default:
		if d.provD {
			return append(buf, engine.SubMsg{Kind: KindPresence})
		}
		return buf
	}
}

func (d *refDMis) Process(in []engine.Incoming) {
	if d.streakK == nil {
		d.streakK = make([]graph.NodeID, 0, len(in))
		d.streakV = make([]int32, 0, len(in))
	}
	prev := int32(d.age)
	mark := false
	isMin := true
	for _, m := range in {
		si := -1
		for i, k := range d.streakK {
			if k == m.From {
				si = i
				break
			}
		}
		if prev > 0 && (si < 0 || d.streakV[si] != prev) {
			continue
		}
		if si < 0 {
			d.streakK = append(d.streakK, m.From)
			d.streakV = append(d.streakV, prev+1)
		} else {
			d.streakV[si] = prev + 1
		}
		switch m.M.Kind {
		case KindMark:
			mark = true
		case KindAlpha:
			if less(uint64(m.M.A), m.From, d.alpha, d.v) {
				isMin = false
			}
		}
	}
	d.age++
	switch {
	case d.age == 1 && d.out == problems.InMIS && mark:
		d.out = problems.Bot
		return
	case d.provD:
		if d.age >= 2 {
			d.provD = false
			if !mark {
				d.out = problems.Bot
			}
		}
		return
	case d.out != problems.Bot:
		return
	case d.age == 1 && mark:
		return
	}
	switch {
	case mark:
		d.out = problems.Dominated
	case isMin:
		d.out = problems.InMIS
	}
}

// TestDMisStreakTableMatchesScanOracle drives the sorted-table DMis and
// the former linear-scan one through identical randomized multi-round
// inboxes (ascending senders, random drop-outs and re-appearances,
// occasional repeated senders, all three inputs) and requires identical
// broadcasts, streak state and decisions.
func TestDMisStreakTableMatchesScanOracle(t *testing.T) {
	const n = 64
	f := &DMisFactory{N: n, AlphaBits: 6} // narrow alphas: ties happen
	for trial := 0; trial < 400; trial++ {
		s := workload(uint64(2000 + trial))
		self := graph.NodeID(s.Intn(n))
		var cands []graph.NodeID
		for len(cands) < 12 {
			u := graph.NodeID(s.Intn(n))
			if u != self && !slices.Contains(cands, u) {
				cands = append(cands, u)
			}
		}
		slices.Sort(cands)
		present := make([]bool, len(cands))
		input := []problems.Value{problems.Bot, problems.InMIS, problems.Dominated}[s.Intn(3)]

		got := f.NewNode(self).(*dmisNode)
		want := &refDMis{v: self, mask: f.alphaMask()}
		ctx := &engine.Ctx{Node: self, Seed: uint64(trial)}
		got.Start(ctx, input)
		want.out, want.provD = input, input == problems.Dominated
		for r := 1; r <= 30; r++ {
			ctx.Round = r
			gb := got.Broadcast(ctx, nil)
			wb := want.Broadcast(ctx, nil)
			if !slices.Equal(gb, wb) {
				t.Fatalf("trial %d round %d: broadcast %v, oracle %v", trial, r, gb, wb)
			}
			var in []engine.Incoming
			for i, u := range cands {
				if s.Intn(4) == 0 {
					present[i] = !present[i]
				}
				if !present[i] {
					continue
				}
				for k := 0; k == 0 || s.Intn(12) == 0; k++ {
					m := engine.SubMsg{Kind: KindAlpha, A: int64(s.Uint64() & f.alphaMask())}
					switch s.Intn(8) {
					case 0:
						m = engine.SubMsg{Kind: KindMark}
					case 1:
						m = engine.SubMsg{Kind: KindPresence}
					}
					in = append(in, engine.Incoming{From: u, M: m})
				}
			}
			got.Process(ctx, in, len(in))
			want.Process(in)
			if got.out != want.out || got.age != want.age || got.provD != want.provD || got.alpha != want.alpha {
				t.Fatalf("trial %d round %d: state (%d,%d,%v,%d), oracle (%d,%d,%v,%d)", trial, r,
					got.out, got.age, got.provD, got.alpha, want.out, want.age, want.provD, want.alpha)
			}
			if got.streak.Started() != (want.streakK != nil) || got.streak.Len() != len(want.streakK) {
				t.Fatalf("trial %d round %d: streak table %d entries, oracle %v", trial, r, got.streak.Len(), want.streakK)
			}
			for i := range want.streakK {
				if id, st := got.streak.Entry(i); id != want.streakK[i] || st != want.streakV[i] {
					t.Fatalf("trial %d round %d: streak entry %d = (%d,%d), oracle (%d,%d)", trial, r, i,
						id, st, want.streakK[i], want.streakV[i])
				}
			}
		}
	}
}

// writeDMisState writes a DMis checkpoint section with a hand-made streak
// table (nil ids = no table).
func writeDMisState(t *testing.T, age int, ids []graph.NodeID) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	w.Section(tagDMis)
	w.Varint(int64(problems.Bot))
	w.Bool(false)
	w.Int(age)
	w.Uvarint(42)
	w.Bool(ids != nil)
	if ids != nil {
		w.Int(len(ids))
		for _, id := range ids {
			w.Varint(int64(id))
			w.Varint(int64(age))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDMisLoadStateRejects pins the restore-side validation of the streak
// table: the merge walk needs strictly ascending ids, and the table must
// exist exactly when the instance has processed a round.
func TestDMisLoadStateRejects(t *testing.T) {
	f := &DMisFactory{N: 64}
	load := func(b []byte) error {
		r := ckpt.NewReader(bytes.NewReader(b))
		f.NewNode(7).(*dmisNode).LoadState(r)
		if err := r.Err(); err != nil {
			return err
		}
		return r.Close()
	}
	if err := load(writeDMisState(t, 3, []graph.NodeID{1, 4, 9})); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	if err := load(writeDMisState(t, 0, nil)); err != nil {
		t.Fatalf("valid fresh instance rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		age int
		ids []graph.NodeID
	}{
		"unsorted":           {3, []graph.NodeID{4, 1, 9}},
		"duplicate":          {3, []graph.NodeID{1, 4, 4, 9}},
		"negative-id":        {3, []graph.NodeID{-2, 4}},
		"table-before-round": {0, []graph.NodeID{1, 4}},
		"missing-after-age":  {2, nil},
	} {
		if err := load(writeDMisState(t, tc.age, tc.ids)); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
