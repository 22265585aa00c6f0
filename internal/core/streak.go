package core

import (
	"fmt"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
)

// StreakTable is the intersection-graph filter of the dynamic algorithms
// (DColor, DMis): an instance may only listen to neighbors that have
// broadcast to it in every round since the instance started, i.e. its
// neighbors in G^∩ of the rounds so far.
//
// The table holds one (id, streak) entry per sender of the instance's
// first round, in strictly ascending id order; streak is the last
// instance age at which that sender had been heard in every round so far.
// A sender is an intersection neighbor in the round after age prev iff
// its streak equals prev. Later senders are never added (they missed the
// first round) and stale entries never match again, so the table is
// fixed-size after Init and the per-round filter is one merge walk of the
// table against the inbox — no hashing, no allocation. The walk relies on
// the engine's inbox order (engine.NodeProc.Process: grouped by sender in
// ascending neighbor order), and restore enforces the ascending order of
// checkpointed tables.
type StreakTable struct {
	ents []streakEntry // nil until Init
}

type streakEntry struct {
	id   graph.NodeID
	last int32
}

// Started reports whether Init has run (a restored empty table counts).
func (t *StreakTable) Started() bool { return t.ents != nil }

// Len returns the number of entries.
func (t *StreakTable) Len() int { return len(t.ents) }

// Entry returns the i-th entry in ascending id order.
func (t *StreakTable) Entry(i int) (id graph.NodeID, streak int32) {
	e := t.ents[i]
	return e.id, e.last
}

// Init fills the table from the instance's first inbox: one entry with
// streak 1 per distinct sender. The table is non-nil afterwards even when
// the inbox is empty.
func (t *StreakTable) Init(in []engine.Incoming) {
	ents := make([]streakEntry, 0, len(in))
	for _, m := range in {
		if n := len(ents); n > 0 && ents[n-1].id == m.From {
			continue
		}
		ents = append(ents, streakEntry{id: m.From, last: 1})
	}
	t.ents = ents
}

// Walk starts one round's filter pass for an instance of age prev (the
// rounds it has processed so far).
func (t *StreakTable) Walk(prev int32) StreakWalk {
	return StreakWalk{ents: t.ents, prev: prev}
}

// StreakWalk is one round's merge walk over a StreakTable.
type StreakWalk struct {
	ents []streakEntry
	i    int
	prev int32
}

// Keep reports whether sender u is an intersection neighbor this round
// and, if so, extends its streak. Senders must be presented in ascending
// order (repeats allowed): only a sender's first message of the round can
// match, since its streak has moved past prev once it has.
func (w *StreakWalk) Keep(u graph.NodeID) bool {
	for w.i < len(w.ents) && w.ents[w.i].id < u {
		w.i++
	}
	if w.i == len(w.ents) || w.ents[w.i].id != u || w.ents[w.i].last != w.prev {
		return false
	}
	w.ents[w.i].last = w.prev + 1
	return true
}

// Save writes the table: a presence flag, then the entry count and the
// (id, streak) pairs in ascending id order.
func (t *StreakTable) Save(w *ckpt.Writer) {
	w.Bool(t.ents != nil)
	if t.ents == nil {
		return
	}
	w.Int(len(t.ents))
	for _, e := range t.ents {
		w.Varint(int64(e.id))
		w.Varint(int64(e.last))
	}
}

// Load restores a table written by Save, with at most maxEntries
// entries. It fails the stream on ids that are negative or not strictly
// ascending — the merge walk would silently drop neighbors otherwise.
func (t *StreakTable) Load(r *ckpt.Reader, maxEntries int) {
	t.ents = nil
	if !r.Bool() {
		return
	}
	n := r.Count(maxEntries)
	if r.Err() != nil {
		return
	}
	ents := ckpt.AllocSlice[streakEntry](r, n)
	for i := range ents {
		id := graph.NodeID(r.Varint())
		last := int32(r.Varint())
		if r.Err() != nil {
			return
		}
		if id < 0 || (i > 0 && id <= ents[i-1].id) {
			r.Fail(fmt.Errorf("core: streak table entry %d: id %d not strictly ascending", i, id))
			return
		}
		ents[i] = streakEntry{id: id, last: last}
	}
	t.ents = ents
}
