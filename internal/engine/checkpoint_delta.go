package engine

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Incremental checkpoint plane: a chain is a full base checkpoint
// followed by delta records, each encoding — against the previous record
// in the chain — only what moved: the net topology diff, the nodes whose
// serialized state changed (tracked from the active set, so quiescent
// and untouched nodes are free), the active list only when it moved, the
// snapshot ring as per-changed-node columns, and the adversary section
// (rewritten whole: randomized adversaries mutate every round and their
// state is O(edges), far below a full snapshot). Records are linked by
// the parent record's CRC-32 fingerprint plus a sequence number, so a
// delta applied to the wrong base, out of order, or over a torn parent
// fails validation before touching any state.
//
// The tracking that feeds deltas is enabled by the first NoteCheckpoint
// call and costs O(active + changes) marks per round; runs that never
// write chains never pay it. NoteCheckpoint must only be called for
// records that were durably persisted — after a failed write the marks
// keep accumulating and the next delta diffs against the last record
// that actually survived, which is exactly what a crashed-then-resumed
// appender needs.
const deltaMagic = "DLCKD1"

// Delta section tags (the adversary section reuses tagAdversary).
const (
	tagDeltaHeader   uint64 = 0x47
	tagDeltaTopology uint64 = 0x48
	tagDeltaNodes    uint64 = 0x49
	tagDeltaActive   uint64 = 0x4A
	tagDeltaSnaps    uint64 = 0x4B
)

// ArenaAlgorithm is optionally implemented by algorithms whose node
// states can be carved from the restore arena attached to the checkpoint
// reader (ckpt.AllocStruct/AllocSlice). Restores check for it and fall
// back to NewNode; implementations must return a node in the same state
// NewNode would (LoadState is called right after either way).
type ArenaAlgorithm interface {
	NewNodeArena(v graph.NodeID, r *ckpt.Reader) NodeProc
}

// newRestoredNode constructs the node state for a restore, through the
// arena when the algorithm supports it.
func (e *Engine) newRestoredNode(r *ckpt.Reader, v graph.NodeID) NodeProc {
	if aa, ok := e.algo.(ArenaAlgorithm); ok {
		return aa.NewNodeArena(v, r)
	}
	return e.algo.NewNode(v)
}

// NoteCheckpoint records that a checkpoint record capturing the engine's
// current state was durably persisted, with sum the record's CRC-32
// fingerprint (ckpt.Writer.Sum32 after writing, ckpt.Reader.Sum32 after
// restoring). It resets the dirty tracking so the next CheckpointDeltaTo
// diffs against exactly this record, enabling the tracking on first
// call. Never note a record whose write failed: the chain's tail is then
// still the previous record, and the accumulated marks keep diffing
// against it.
func (e *Engine) NoteCheckpoint(sum uint32) {
	if !e.ckptTrack {
		e.ckptTrack = true
		e.dirtyNode = make([]bool, e.cfg.N)
		e.dirtyOut = make([]bool, e.cfg.N)
		e.topDirty = make(map[graph.EdgeKey]bool)
	} else {
		for _, v := range e.dirtyList {
			e.dirtyNode[v] = false
		}
		for _, v := range e.dirtyOutList {
			e.dirtyOut[v] = false
		}
		clear(e.topDirty)
	}
	e.dirtyList = e.dirtyList[:0]
	e.dirtyOutList = e.dirtyOutList[:0]
	e.activeDirty = false
	e.ckptSeq++
	e.ckptSum = sum
	e.ckptRound = e.round
}

// NoteCheckpointBase is NoteCheckpoint for a full base record: it
// restarts the chain sequence, so a rebase onto a fresh chain begins at
// record 1 again. Use it whenever the persisted record is a full
// checkpoint heading a (new) chain.
func (e *Engine) NoteCheckpointBase(sum uint32) {
	e.ckptSeq = 0
	e.NoteCheckpoint(sum)
}

// ChainSeq returns the number of records noted in the current chain (0
// when no chain is active). cmd/dynsim uses it to decide when to rebase.
func (e *Engine) ChainSeq() uint64 { return e.ckptSeq }

// writeEdgeList delta-encodes a sorted edge-key list.
func writeEdgeList(w *ckpt.Writer, keys []graph.EdgeKey) {
	w.Int(len(keys))
	var prev graph.EdgeKey
	for i, k := range keys {
		if i == 0 {
			w.Uvarint(uint64(k))
		} else {
			w.Uvarint(uint64(k - prev))
		}
		prev = k
	}
}

// readEdgeList reads a delta-encoded edge-key list, validating strict
// ascent and range. The slice is carved from the reader's arena.
func readEdgeList(r *ckpt.Reader, n int, what string) []graph.EdgeKey {
	nKeys := r.Count(n * (n - 1) / 2)
	if r.Err() != nil {
		return nil
	}
	keys := ckpt.AllocSlice[graph.EdgeKey](r, nKeys)
	var prev graph.EdgeKey
	for i := 0; i < nKeys; i++ {
		d := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		k := graph.EdgeKey(d)
		if i > 0 {
			if d == 0 {
				r.Fail(fmt.Errorf("engine: checkpoint %s edge keys not strictly ascending", what))
				return nil
			}
			k = prev + graph.EdgeKey(d)
		}
		if u, v := k.Nodes(); int(u) >= n || int(v) >= n || u >= v {
			r.Fail(fmt.Errorf("engine: checkpoint %s edge %v out of range for N=%d", what, k, n))
			return nil
		}
		keys[i] = k
		prev = k
	}
	return keys
}

// CheckpointDeltaTo writes a delta record's engine sections into an
// already-open checkpoint stream: the state difference against the last
// record passed to NoteCheckpoint. It fails if no record has been noted
// (write a full checkpoint first — a chain starts with a base). The
// engine is left untouched; tracking is only reset when the caller notes
// the record as persisted.
func (e *Engine) CheckpointDeltaTo(w *ckpt.Writer) {
	if !e.ckptTrack {
		w.Fail(fmt.Errorf("engine: CheckpointDelta without a base — write a full checkpoint and NoteCheckpoint it first"))
		return
	}
	w.String(deltaMagic)

	w.Section(tagDeltaHeader)
	w.Uvarint(e.ckptSeq + 1)
	w.Uvarint(uint64(e.ckptSum))
	w.Int(e.ckptRound)
	w.Int(e.round)

	w.Section(tagDeltaTopology)
	adds := make([]graph.EdgeKey, 0, len(e.topDirty))
	rems := make([]graph.EdgeKey, 0, len(e.topDirty))
	for k, added := range e.topDirty {
		if added {
			adds = append(adds, k)
		} else {
			rems = append(rems, k)
		}
	}
	slices.Sort(adds)
	slices.Sort(rems)
	writeEdgeList(w, adds)
	writeEdgeList(w, rems)

	w.Section(tagDeltaNodes)
	slices.Sort(e.dirtyList)
	w.Int(len(e.dirtyList))
	for _, v := range e.dirtyList {
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

	w.Section(tagDeltaActive)
	w.Bool(e.activeDirty)
	if e.activeDirty {
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
	}

	// Snapshot ring: per new slot, only the columns of nodes whose output
	// changed since the parent record — every other node's entry equals
	// the parent's latest slot, which the restore stages and copies.
	w.Section(tagDeltaSnaps)
	slices.Sort(e.dirtyOutList)
	w.Int(len(e.dirtyOutList))
	var prevO graph.NodeID
	for i, v := range e.dirtyOutList {
		if i == 0 {
			w.Uvarint(uint64(v))
		} else {
			w.Uvarint(uint64(v - prevO))
		}
		prevO = v
	}
	lo := e.round - e.lag
	if lo < 1 {
		lo = 1
	}
	first := e.ckptRound + 1
	if first < lo {
		first = lo
	}
	nSlots := e.round - first + 1
	if nSlots < 0 {
		nSlots = 0
	}
	w.Int(nSlots)
	for rr := first; rr <= e.round; rr++ {
		snap := e.snaps[rr%len(e.snaps)]
		if snap == nil {
			w.Fail(fmt.Errorf("engine: snapshot ring slot for round %d missing", rr))
			return
		}
		for _, v := range e.dirtyOutList {
			w.Varint(int64(snap[v]))
		}
	}

	// Adversary state: delta-capable adversaries (Churn, EdgeMarkov)
	// encode only their (ckptRound, round] evolution; the rest fall back
	// to a full SaveState rewrite. The discriminator bit makes a restore
	// onto a differently-capable reconstruction fail loudly instead of
	// misparsing the section.
	w.Section(tagAdversary)
	ck, ok := e.adv.(adversary.Checkpointer)
	w.Bool(ok)
	if ok {
		dc, isDelta := ck.(adversary.DeltaCheckpointer)
		w.Bool(isDelta)
		if isDelta {
			dc.SaveDelta(w, e.ckptRound, e.round)
		} else {
			ck.SaveState(w)
		}
	}
}

// RestoreDeltaFrom applies a delta record's engine sections to an engine
// positioned at the record's parent — either freshly restored from the
// chain prefix (RestoreFrom + NoteCheckpoint per record) or the live
// engine that wrote the chain. The header's sequence number, parent
// fingerprint and parent round are validated against the last noted
// record before any state is touched, so a wrong-base, reordered or
// stale delta fails cleanly.
func (e *Engine) RestoreDeltaFrom(r *ckpt.Reader) {
	if !e.ckptTrack {
		r.Fail(fmt.Errorf("engine: delta restore without a restored base record"))
		return
	}
	if magic := r.String(); magic != deltaMagic {
		if r.Err() == nil {
			r.Fail(fmt.Errorf("engine: not a delta checkpoint stream (magic %q)", magic))
		}
		return
	}

	r.Section(tagDeltaHeader)
	seq := r.Uvarint()
	psumRaw := r.Uvarint()
	pround := r.Int()
	round := r.Int()
	if r.Err() != nil {
		return
	}
	switch {
	case psumRaw > math.MaxUint32:
		r.Fail(fmt.Errorf("engine: delta parent fingerprint %#x overflows CRC-32", psumRaw))
	case seq != e.ckptSeq+1:
		r.Fail(fmt.Errorf("engine: delta sequence %d, chain is at %d — record reordered or missing", seq, e.ckptSeq))
	case uint32(psumRaw) != e.ckptSum:
		r.Fail(fmt.Errorf("engine: delta parent fingerprint %#x does not match chain tail %#x — wrong base", psumRaw, e.ckptSum))
	case pround != e.round || pround != e.ckptRound:
		r.Fail(fmt.Errorf("engine: delta parent round %d, engine at %d (chain tail %d)", pround, e.round, e.ckptRound))
	case round < pround:
		r.Fail(fmt.Errorf("engine: delta round %d precedes parent round %d", round, pround))
	}
	if r.Err() != nil {
		return
	}
	n := e.cfg.N

	r.Section(tagDeltaTopology)
	adds := readEdgeList(r, n, "delta add")
	rems := readEdgeList(r, n, "delta remove")
	if r.Err() != nil {
		return
	}

	r.Section(tagDeltaNodes)
	nDirty := r.Count(n)
	if r.Err() != nil {
		return
	}
	last := -1
	for i := 0; i < nDirty; i++ {
		v := int(r.Varint())
		if r.Err() != nil {
			return
		}
		if v <= last || v >= n {
			r.Fail(fmt.Errorf("engine: delta node %d out of order or range", v))
			return
		}
		last = v
		wr := r.Int()
		if r.Err() != nil {
			return
		}
		if e.awake[v] {
			if wr != e.wakeRnd[v] {
				r.Fail(fmt.Errorf("engine: delta wake round %d for node %d, engine has %d", wr, v, e.wakeRnd[v]))
				return
			}
		} else {
			if wr <= pround || wr > round {
				r.Fail(fmt.Errorf("engine: delta wake round %d for new node %d outside (%d, %d]", wr, v, pround, round))
				return
			}
			e.awake[v] = true
			e.wakeRnd[v] = wr
		}
		quiet := r.Int()
		if r.Err() != nil {
			return
		}
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

	r.Section(tagDeltaActive)
	activeMoved := r.Bool()
	if r.Err() != nil {
		return
	}
	if activeMoved {
		for _, v := range e.activeList {
			e.active[v] = false
		}
		e.activeList = e.activeList[:0]
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
					r.Fail(fmt.Errorf("engine: delta active list not strictly ascending"))
					return
				}
				v = prevV + d
			}
			if int(v) >= n || !e.awake[v] {
				r.Fail(fmt.Errorf("engine: delta active node %d out of range or asleep", v))
				return
			}
			e.active[v] = true
			e.activeList = append(e.activeList, v)
			prevV = v
		}
	}

	r.Section(tagDeltaSnaps)
	nOut := r.Count(n)
	if r.Err() != nil {
		return
	}
	outs := ckpt.AllocSlice[graph.NodeID](r, nOut)
	var prevO graph.NodeID
	for i := 0; i < nOut; i++ {
		d := graph.NodeID(r.Uvarint())
		if r.Err() != nil {
			return
		}
		v := d
		if i > 0 {
			if d == 0 {
				r.Fail(fmt.Errorf("engine: delta changed-output list not strictly ascending"))
				return
			}
			v = prevO + d
		}
		if int(v) >= n || !e.awake[v] {
			r.Fail(fmt.Errorf("engine: delta changed-output node %d out of range or asleep", v))
			return
		}
		outs[i] = v
		prevO = v
	}
	nSlots := r.Count(e.lag + 1)
	if r.Err() != nil {
		return
	}
	lo := round - e.lag
	if lo < 1 {
		lo = 1
	}
	first := pround + 1
	if first < lo {
		first = lo
	}
	want := round - first + 1
	if want < 0 {
		want = 0
	}
	if nSlots != want {
		r.Fail(fmt.Errorf("engine: delta has %d snapshot slots for rounds (%d, %d], want %d", nSlots, pround, round, want))
		return
	}
	if nSlots > 0 {
		// Stage the parent's latest snapshot: unchanged nodes hold its
		// value in every new slot, and one new slot index may collide with
		// the buffer it lives in (rr = pround + lag + 1).
		scratch := ckpt.AllocSlice[problems.Value](r, n)
		if pround > 0 {
			psnap := e.snaps[pround%len(e.snaps)]
			if psnap == nil {
				r.Fail(fmt.Errorf("engine: snapshot ring slot for parent round %d missing", pround))
				return
			}
			copy(scratch, psnap)
		}
		for rr := first; rr <= round; rr++ {
			slot := e.snaps[rr%len(e.snaps)]
			if slot == nil {
				slot = ckpt.AllocSlice[problems.Value](r, n)
				e.snaps[rr%len(e.snaps)] = slot
			}
			copy(slot, scratch)
			for _, v := range outs {
				slot[v] = problems.Value(r.Varint())
			}
			if r.Err() != nil {
				return
			}
		}
	}

	r.Section(tagAdversary)
	hasAdv := r.Bool()
	if r.Err() != nil {
		return
	}
	ck, isCk := e.adv.(adversary.Checkpointer)
	if hasAdv != isCk {
		r.Fail(fmt.Errorf("engine: delta adversary state presence %v, engine adversary %T checkpointer %v", hasAdv, e.adv, isCk))
		return
	}
	if hasAdv {
		isDelta := r.Bool()
		if r.Err() != nil {
			return
		}
		dc, canDelta := ck.(adversary.DeltaCheckpointer)
		if isDelta != canDelta {
			r.Fail(fmt.Errorf("engine: delta adversary encoding delta=%v, engine adversary %T delta-capable=%v", isDelta, e.adv, canDelta))
			return
		}
		if isDelta {
			dc.LoadDelta(r, pround, round)
		} else {
			ck.LoadState(r)
		}
		if r.Err() != nil {
			return
		}
	}

	// Sections validated — apply the topology diff. Model invariant as in
	// the full restore: every edge entering must connect awake nodes.
	for _, k := range adds {
		u, v := k.Nodes()
		if !e.awake[u] || !e.awake[v] {
			r.Fail(fmt.Errorf("engine: delta edge %v touches a sleeping node", k))
			return
		}
	}
	e.adj.Apply(adds, rems)
	e.resolver.observe(adds, rems)
	e.round = round
}

// CheckpointChain starts a checkpoint chain on w: the chain magic plus a
// full base record, noted as the chain's head so subsequent
// CheckpointDelta calls diff against it. Engine-only variant — composed
// chains (engine + checker in one record) go through the dynlocal
// package's chain functions.
func (e *Engine) CheckpointChain(w io.Writer) error {
	if err := ckpt.WriteChainMagic(w); err != nil {
		return err
	}
	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	e.CheckpointTo(cw)
	if err := cw.Close(); err != nil {
		return err
	}
	if err := ckpt.AppendChainRecord(w, buf.Bytes()); err != nil {
		return err
	}
	e.NoteCheckpointBase(cw.Sum32())
	return nil
}

// CheckpointDelta appends one delta record to a chain started with
// CheckpointChain, noting it on success. On error the chain tail and the
// dirty tracking are unchanged — retry later and the next delta still
// diffs against the last surviving record.
func (e *Engine) CheckpointDelta(w io.Writer) error {
	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	e.CheckpointDeltaTo(cw)
	if err := cw.Close(); err != nil {
		return err
	}
	if err := ckpt.AppendChainRecord(w, buf.Bytes()); err != nil {
		return err
	}
	e.NoteCheckpoint(cw.Sum32())
	return nil
}

// RestoreChain restores an engine-only chain (CheckpointChain +
// CheckpointDelta records): the base record into a fresh engine, then
// every delta in order. Validation is per record — a torn tail or a
// record that fails linkage never applies, and the error reports what
// broke. After a successful restore the engine can both continue
// stepping and keep appending deltas to the same chain.
func (e *Engine) RestoreChain(r io.Reader) error {
	cr := ckpt.NewChainReader(r)
	first := true
	for {
		rec, err := cr.Next()
		if err == io.EOF {
			if first {
				return fmt.Errorf("engine: empty checkpoint chain")
			}
			return nil
		}
		if err != nil {
			return err
		}
		rr := ckpt.NewReader(bytes.NewReader(rec))
		if first {
			e.RestoreFrom(rr)
		} else {
			e.RestoreDeltaFrom(rr)
		}
		if err := rr.Err(); err != nil {
			return err
		}
		if err := rr.Close(); err != nil {
			return err
		}
		if first {
			e.NoteCheckpointBase(rr.Sum32())
		} else {
			e.NoteCheckpoint(rr.Sum32())
		}
		first = false
	}
}
