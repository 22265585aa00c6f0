package engine

import (
	"fmt"
	"io"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Checkpoint plane: Checkpoint serializes the full deterministic run
// state at a round barrier; Restore rebuilds it onto a freshly
// constructed engine with the same configuration, after which the
// resumed run is bit-identical to the uninterrupted one — outputs,
// accounting, RoundInfo deltas and checker verdicts — for every worker
// count (worker count is deliberately NOT part of the checkpoint: the
// determinism contract makes it a free parameter, and the fault-injection
// suite resumes under different counts on purpose).
//
// What a checkpoint captures, and why the rest is skippable:
//
//   - header: algorithm name, N, Seed, OutputLag, a retired dense-walk
//     flag (always false; restores reject true), the completed round and
//     the input vector — all validated on restore, since node state only
//     replays correctly under the exact same configuration;
//   - topology: the current graph's sorted edge keys, delta-encoded.
//     Restore seeds both the sparse adjacency and the resolver's pending
//     diff from it;
//   - nodes: for every awake node its wake round, quiescence counter and
//     the algorithm state via ckpt.Stater;
//   - active set: the sorted active list;
//   - snapshot ring: the output snapshots of rounds max(1, R-lag)..R —
//     every slot a future round may still read through DelayedOutputs or
//     diff against;
//   - adversary: mutable position via adversary.Checkpointer, with a
//     presence flag so stateless-by-round adversaries (Static,
//     Alternator, Scripted) round-trip with no state at all.
//
// Not captured, by design: outboxes, inboxes, per-worker accounting
// cells, changed/drop shards and the RoundInfo ring are per-round
// scratch fully rebuilt by the next Step (the quiescence grace path
// empties a node's outbox before any cross-round read could see it);
// message/bit accounting is per-round and carries no cross-round state.
const ckptMagic = "DLCK1"

// Section tags guarding the engine-level sections of a checkpoint
// stream (core processors use 0x5x, algorithms 0x6x, adversaries 0x7x).
const (
	tagHeader    uint64 = 0x41
	tagTopology  uint64 = 0x42
	tagNodes     uint64 = 0x43
	tagActive    uint64 = 0x44
	tagSnaps     uint64 = 0x45
	tagAdversary uint64 = 0x46
)

// Checkpoint writes the engine's state to w as one self-contained
// checksummed checkpoint stream. It must be called at a round barrier
// (never from an observer or algorithm callback). The engine is left
// untouched and can keep stepping.
func (e *Engine) Checkpoint(w io.Writer) error {
	cw := ckpt.NewWriter(w)
	e.CheckpointTo(cw)
	return cw.Close()
}

// Restore reads a checkpoint stream produced by Checkpoint into e, which
// must be freshly constructed (no rounds played) with the same
// configuration, algorithm and adversary construction as the
// checkpointed engine. After a successful restore the engine's next Step
// plays round Round()+1 exactly as the original would have.
func (e *Engine) Restore(r io.Reader) error {
	cr := ckpt.NewReader(r)
	e.RestoreFrom(cr)
	if err := cr.Err(); err != nil {
		return err
	}
	return cr.Close()
}

// CheckpointTo writes the engine sections into an already-open
// checkpoint stream. Callers that compose the engine with other
// checkpointable components (checkers, recorders) in one stream use this
// and Close the writer themselves; errors accumulate on w.
func (e *Engine) CheckpointTo(w *ckpt.Writer) {
	w.String(ckptMagic)

	w.Section(tagHeader)
	w.String(e.algo.Name())
	w.Int(e.cfg.N)
	w.Uvarint(e.cfg.Seed)
	w.Int(e.lag)
	w.Bool(false) // retired dense-walk flag
	w.Int(e.round)
	w.Bool(e.cfg.Input != nil)
	for _, val := range e.cfg.Input {
		w.Varint(int64(val))
	}

	w.Section(tagTopology)
	keys := e.resolver.materialize().EdgeKeys()
	w.Int(len(keys))
	var prevKey graph.EdgeKey
	for i, k := range keys {
		if i == 0 {
			w.Uvarint(uint64(k))
		} else {
			w.Uvarint(uint64(k - prevKey))
		}
		prevKey = k
	}

	w.Section(tagNodes)
	nAwake := 0
	for v := 0; v < e.cfg.N; v++ {
		if e.awake[v] {
			nAwake++
		}
	}
	w.Int(nAwake)
	for v := 0; v < e.cfg.N; v++ {
		if !e.awake[v] {
			continue
		}
		w.Varint(int64(v))
		w.Int(e.wakeRnd[v])
		w.Varint(int64(e.quiet[v]))
		st, ok := e.states[v].(ckpt.Stater)
		if !ok {
			w.Fail(fmt.Errorf("engine: algorithm %q node state %T does not support checkpointing", e.algo.Name(), e.states[v]))
			return
		}
		st.SaveState(w)
	}

	w.Section(tagActive)
	w.Int(len(e.activeList))
	var prevV graph.NodeID
	for i, v := range e.activeList {
		if i == 0 {
			w.Uvarint(uint64(v))
		} else {
			w.Uvarint(uint64(v - prevV))
		}
		prevV = v
	}

	w.Section(tagSnaps)
	lo := e.round - e.lag
	if lo < 1 {
		lo = 1
	}
	if e.round == 0 {
		w.Int(0)
	} else {
		w.Int(e.round - lo + 1)
		for rr := lo; rr <= e.round; rr++ {
			snap := e.snaps[rr%len(e.snaps)]
			if snap == nil {
				w.Fail(fmt.Errorf("engine: snapshot ring slot for round %d missing", rr))
				return
			}
			for _, val := range snap {
				w.Varint(int64(val))
			}
		}
	}

	w.Section(tagAdversary)
	ck, ok := e.adv.(adversary.Checkpointer)
	w.Bool(ok)
	if ok {
		ck.SaveState(w)
	}
}

// restoreQuiet validates and installs the quiescence counter of a node
// whose state was just loaded. The counter only grows while the node
// reports Quiescent — its state then stays frozen until an edge touch
// resets the counter — and stops at lag+1, when the node is dropped. Any
// other value would send the node into the grace fast path it never
// earned and silently skip its Process calls, so it fails r.
func (e *Engine) restoreQuiet(r *ckpt.Reader, v graph.NodeID, quiet int) {
	q, _ := e.states[v].(Quiescer)
	switch {
	case quiet < 0 || quiet > e.lag+1:
		r.Fail(fmt.Errorf("engine: checkpoint quiescence counter %d for node %d outside [0, %d]", quiet, v, e.lag+1))
	case quiet != 0 && (q == nil || !q.Quiescent()):
		r.Fail(fmt.Errorf("engine: checkpoint quiescence counter %d for node %d, which does not report quiescent", quiet, v))
	default:
		e.quiet[v] = int32(quiet)
		e.quiescer[v] = q
	}
}

// RestoreFrom reads the engine sections from an already-open checkpoint
// stream, leaving the stream positioned after them. Errors — stream
// corruption as well as configuration mismatches — accumulate on r; the
// engine must be treated as unusable if r.Err() is non-nil afterwards.
func (e *Engine) RestoreFrom(r *ckpt.Reader) {
	if e.round != 0 {
		r.Fail(fmt.Errorf("engine: Restore requires a fresh engine, this one has played %d rounds", e.round))
		return
	}
	if magic := r.String(); magic != ckptMagic {
		if r.Err() == nil {
			r.Fail(fmt.Errorf("engine: not a checkpoint stream (magic %q)", magic))
		}
		return
	}

	r.Section(tagHeader)
	name := r.String()
	n := r.Int()
	seed := r.Uvarint()
	lag := r.Int()
	dense := r.Bool()
	round := r.Int()
	hasInput := r.Bool()
	if r.Err() != nil {
		return
	}
	switch {
	case name != e.algo.Name():
		r.Fail(fmt.Errorf("engine: checkpoint is for algorithm %q, engine runs %q", name, e.algo.Name()))
	case n != e.cfg.N:
		r.Fail(fmt.Errorf("engine: checkpoint has N=%d, engine has N=%d", n, e.cfg.N))
	case seed != e.cfg.Seed:
		r.Fail(fmt.Errorf("engine: checkpoint has seed %d, engine has seed %d", seed, e.cfg.Seed))
	case lag != e.lag:
		r.Fail(fmt.Errorf("engine: checkpoint has OutputLag=%d, engine has %d", lag, e.lag))
	case dense:
		r.Fail(fmt.Errorf("engine: checkpoint is from the retired dense round walk"))
	case round < 0:
		r.Fail(fmt.Errorf("engine: checkpoint has negative round %d", round))
	case hasInput != (e.cfg.Input != nil):
		r.Fail(fmt.Errorf("engine: checkpoint input presence %v, engine %v", hasInput, e.cfg.Input != nil))
	}
	if r.Err() != nil {
		return
	}
	if hasInput {
		for i := 0; i < n; i++ {
			if val := problems.Value(r.Varint()); r.Err() == nil && val != e.cfg.Input[i] {
				r.Fail(fmt.Errorf("engine: checkpoint input[%d]=%d, engine has %d", i, val, e.cfg.Input[i]))
			}
			if r.Err() != nil {
				return
			}
		}
	}

	r.Section(tagTopology)
	nEdges := r.Count(n * (n - 1) / 2)
	if r.Err() != nil {
		return
	}
	keys := ckpt.AllocSlice[graph.EdgeKey](r, nEdges)
	var prevKey graph.EdgeKey
	for i := 0; i < nEdges; i++ {
		d := r.Uvarint()
		if r.Err() != nil {
			return
		}
		k := graph.EdgeKey(d)
		if i > 0 {
			if d == 0 {
				r.Fail(fmt.Errorf("engine: checkpoint edge keys not strictly ascending"))
				return
			}
			k = prevKey + graph.EdgeKey(d)
		}
		if u, v := k.Nodes(); int(u) >= n || int(v) >= n || u >= v {
			r.Fail(fmt.Errorf("engine: checkpoint edge %v out of range for N=%d", k, n))
			return
		}
		keys[i] = k
		prevKey = k
	}

	r.Section(tagNodes)
	nAwake := r.Count(n)
	if r.Err() != nil {
		return
	}
	last := -1
	for i := 0; i < nAwake; i++ {
		v := int(r.Varint())
		if r.Err() != nil {
			return
		}
		if v <= last || v >= n {
			r.Fail(fmt.Errorf("engine: checkpoint awake node %d out of order or range", v))
			return
		}
		last = v
		wr := r.Int()
		if r.Err() == nil && (wr < 1 || wr > round) {
			r.Fail(fmt.Errorf("engine: checkpoint wake round %d for node %d outside [1, %d]", wr, v, round))
		}
		quiet := r.Int()
		if r.Err() != nil {
			return
		}
		e.awake[v] = true
		e.wakeRnd[v] = wr
		np := e.newRestoredNode(r, graph.NodeID(v))
		e.states[v] = np
		st, ok := np.(ckpt.Stater)
		if !ok {
			r.Fail(fmt.Errorf("engine: algorithm %q node state %T does not support checkpointing", e.algo.Name(), np))
			return
		}
		st.LoadState(r)
		if r.Err() == nil {
			e.restoreQuiet(r, graph.NodeID(v), quiet)
		}
		if r.Err() != nil {
			return
		}
	}

	r.Section(tagActive)
	nActive := r.Count(n)
	if r.Err() != nil {
		return
	}
	var prevV graph.NodeID
	for i := 0; i < nActive; i++ {
		d := graph.NodeID(r.Uvarint())
		if r.Err() != nil {
			return
		}
		v := d
		if i > 0 {
			if d == 0 {
				r.Fail(fmt.Errorf("engine: checkpoint active list not strictly ascending"))
				return
			}
			v = prevV + d
		}
		if int(v) >= n || !e.awake[v] {
			r.Fail(fmt.Errorf("engine: checkpoint active node %d out of range or asleep", v))
			return
		}
		e.active[v] = true
		e.activeList = append(e.activeList, v)
		prevV = v
	}

	r.Section(tagSnaps)
	nSnaps := r.Count(e.lag + 1)
	if r.Err() != nil {
		return
	}
	lo := round - e.lag
	if lo < 1 {
		lo = 1
	}
	want := round - lo + 1
	if round == 0 {
		want = 0
	}
	if nSnaps != want {
		r.Fail(fmt.Errorf("engine: checkpoint has %d snapshot slots for round %d, want %d", nSnaps, round, want))
		return
	}
	for rr := lo; rr <= round; rr++ {
		snap := ckpt.AllocSlice[problems.Value](r, n)
		for i := range snap {
			snap[i] = problems.Value(r.Varint())
		}
		if r.Err() != nil {
			return
		}
		e.snaps[rr%len(e.snaps)] = snap
	}

	r.Section(tagAdversary)
	hasAdv := r.Bool()
	if r.Err() != nil {
		return
	}
	ck, isCk := e.adv.(adversary.Checkpointer)
	if hasAdv != isCk {
		r.Fail(fmt.Errorf("engine: checkpoint adversary state presence %v, engine adversary %T checkpointer %v", hasAdv, e.adv, isCk))
		return
	}
	if hasAdv {
		ck.LoadState(r)
		if r.Err() != nil {
			return
		}
	}

	// All sections validated — install the topology. Every restored edge
	// must connect awake nodes (the model invariant Step asserts on the
	// way in holds for persisted edges by induction).
	for _, k := range keys {
		u, v := k.Nodes()
		if !e.awake[u] || !e.awake[v] {
			r.Fail(fmt.Errorf("engine: checkpoint edge %v touches a sleeping node", k))
			return
		}
	}
	e.adj.Apply(keys, nil)
	e.resolver.observe(keys, nil)
	e.round = round
}
