package core

import (
	"fmt"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
)

// Checkpoint support for the framework node processors. A processor
// serializes recursively: the combiner wrappers write their pipeline
// shape (channel ids and ages) and delegate each instance's fields to
// the instance itself, which must implement ckpt.Stater. LoadState runs
// on a freshly NewNode-ed processor whose Start has NOT been called —
// every field normally initialized by Start or by the first processed
// round is restored from the stream instead.

// Section tags guarding the framework layers of a checkpoint stream.
const (
	tagSingle uint64 = 0x51
	tagConcat uint64 = 0x52
	tagChain  uint64 = 0x53
)

// saveInstance serializes one NodeInstance, failing the stream if the
// instance does not support checkpointing.
func saveInstance(w *ckpt.Writer, inst NodeInstance) {
	st, ok := inst.(ckpt.Stater)
	if !ok {
		w.Fail(fmt.Errorf("core: %T does not support checkpointing", inst))
		return
	}
	st.SaveState(w)
}

// loadInstance restores one NodeInstance in place.
func loadInstance(r *ckpt.Reader, inst NodeInstance) {
	st, ok := inst.(ckpt.Stater)
	if !ok {
		r.Fail(fmt.Errorf("core: %T does not support checkpointing", inst))
		return
	}
	st.LoadState(r)
}

// ArenaFactory is optionally implemented by algorithm factories
// (DynamicAlgorithm or NetworkStaticAlgorithm) whose instance structs
// can be carved from the restore arena attached to the checkpoint
// reader. The returned instance must be in the exact state NewNode
// leaves it in — LoadState runs right after either way.
type ArenaFactory interface {
	NewNodeArena(v graph.NodeID, r *ckpt.Reader) NodeInstance
}

// nodeFactory is the NewNode slice both algorithm-factory interfaces
// share, so restore paths can construct instances uniformly.
type nodeFactory interface {
	NewNode(v graph.NodeID) NodeInstance
}

// restoredInstance builds an instance for a restore, through the arena
// when the factory supports it.
func restoredInstance(r *ckpt.Reader, f nodeFactory, v graph.NodeID) NodeInstance {
	if af, ok := f.(ArenaFactory); ok {
		return af.NewNodeArena(v, r)
	}
	return f.NewNode(v)
}

// SaveState implements ckpt.Stater by delegating to the wrapped
// instance.
func (p singleProc) SaveState(w *ckpt.Writer) {
	w.Section(tagSingle)
	saveInstance(w, p.inst)
}

// LoadState implements ckpt.Stater.
func (p singleProc) LoadState(r *ckpt.Reader) {
	r.Section(tagSingle)
	loadInstance(r, p.inst)
}

// saveSlots serializes one instance pipeline: slot count, then each
// slot's channel, age and instance state in ring order (front = oldest).
func saveSlots(w *ckpt.Writer, ring *slotRing) {
	w.Int(ring.n)
	for i := 0; i < ring.n; i++ {
		s := ring.at(i)
		w.Varint(int64(s.ch))
		w.Int(s.age)
		saveInstance(w, s.inst)
	}
}

// loadSlots restores an instance pipeline of at most size live slots,
// building each instance via the factory (NewNode without Start — all
// instance state comes from the stream). Channels must step by exactly
// stride from slot to slot, as a running pipeline's do (the demux index
// relies on it). The ring's backing array is carved from the reader's
// arena at the pipeline bound, oldest slot first.
func loadSlots(r *ckpt.Reader, size int, stride int32, f nodeFactory, v graph.NodeID) slotRing {
	n := r.Count(size)
	if r.Err() != nil {
		return slotRing{}
	}
	ring := slotRing{buf: ckpt.AllocSlice[dSlot](r, size), n: n}
	for i := 0; i < n; i++ {
		s := &ring.buf[i]
		s.ch = int32(r.Varint())
		if i > 0 && int64(s.ch) != int64(ring.buf[i-1].ch)+int64(stride) {
			r.Fail(fmt.Errorf("core: pipeline slot %d: channel %d does not follow %d", i, s.ch, ring.buf[i-1].ch))
			return slotRing{}
		}
		s.age = r.Int()
		s.inst = restoredInstance(r, f, v)
		loadInstance(r, s.inst)
		if r.Err() != nil {
			return slotRing{}
		}
	}
	return ring
}

// SaveState implements ckpt.Stater for the Concat processor.
func (p *concatProc) SaveState(w *ckpt.Writer) {
	w.Section(tagConcat)
	saveInstance(w, p.salg)
	saveSlots(w, &p.dal)
}

// LoadState implements ckpt.Stater: it rebuilds the static-algorithm
// instance and the dynamic pipeline via their factories, then restores
// each instance's state. ictx is per-call scratch and needs no
// restoring.
func (p *concatProc) LoadState(r *ckpt.Reader) {
	r.Section(tagConcat)
	p.salg = restoredInstance(r, p.c.S, p.v)
	loadInstance(r, p.salg)
	p.dal = loadSlots(r, p.c.T1-1, 1, p.c.D, p.v)
}

// NewNodeArena implements engine.ArenaAlgorithm: on restore the
// processor struct itself comes from the arena.
func (c *Concat) NewNodeArena(v graph.NodeID, r *ckpt.Reader) engine.NodeProc {
	p := ckpt.AllocStruct[concatProc](r)
	p.c, p.v = c, v
	return p
}

// SaveState implements ckpt.Stater for the Chain processor.
func (p *chainProc) SaveState(w *ckpt.Writer) {
	w.Section(tagChain)
	saveInstance(w, p.salg)
	saveSlots(w, &p.mids)
	saveSlots(w, &p.outs)
}

// LoadState implements ckpt.Stater.
func (p *chainProc) LoadState(r *ckpt.Reader) {
	r.Section(tagChain)
	p.salg = restoredInstance(r, p.c.S, p.v)
	loadInstance(r, p.salg)
	p.mids = loadSlots(r, p.c.Tm-1, 2, p.c.Mid, p.v)
	p.outs = loadSlots(r, p.c.T1-1, 2, p.c.D, p.v)
}

// NewNodeArena implements engine.ArenaAlgorithm.
func (c *Chain) NewNodeArena(v graph.NodeID, r *ckpt.Reader) engine.NodeProc {
	p := ckpt.AllocStruct[chainProc](r)
	p.c, p.v = c, v
	return p
}

// Interface conformance: the engine checkpoints node processors through
// ckpt.Stater.
var (
	_ ckpt.Stater = singleProc{}
	_ ckpt.Stater = (*concatProc)(nil)
	_ ckpt.Stater = (*chainProc)(nil)
)
