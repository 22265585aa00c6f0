package core

import (
	"fmt"
	"sync"

	"dynlocal/internal/engine"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// dSlot is one live dynamic-algorithm instance at a node.
type dSlot struct {
	ch   int32
	inst NodeInstance
	age  int // rounds processed
}

// slotRing is a combiner's instance pipeline: at most len(buf) live
// instances, oldest first, in a backing array allocated once. Starting
// this round's instance and retiring the oldest overwrites one slot, so a
// steady-state round moves and allocates nothing for the pipeline itself.
type slotRing struct {
	buf  []dSlot // fixed capacity: the pipeline length bound
	head int     // index of the oldest live slot
	n    int     // live slots
}

// at returns the i-th live slot, 0 = oldest.
func (r *slotRing) at(i int) *dSlot {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

// push appends s as the newest slot of a pipeline bounded by size live
// instances, retiring the oldest once the bound is reached.
func (r *slotRing) push(s dSlot, size int) {
	if r.buf == nil {
		r.buf = make([]dSlot, size)
	}
	if r.n < len(r.buf) {
		*r.at(r.n) = s
		r.n++
		return
	}
	r.buf[r.head] = s
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// chanIndex maps the channels of one round's inbox to live slot indices.
// A pipeline starts one instance per round, so its live channels step by
// exactly one stride (1<<shift) from the oldest slot's, and the index is
// an offset — no scan of the ring.
type chanIndex struct {
	base, n int32
	shift   uint
}

// index returns the ring's channel index for this round. Channels are
// pushed in increasing order (rounds advance), so the live ones are
// consecutive strides iff the newest is exactly n-1 strides past the
// oldest; anything else is a bug (restore rejects such pipelines), and
// index panics.
func (r *slotRing) index(shift uint) chanIndex {
	if r.n == 0 {
		return chanIndex{}
	}
	c := chanIndex{base: r.at(0).ch, n: int32(r.n), shift: shift}
	if r.at(r.n-1).ch-c.base != (c.n-1)<<shift {
		panic(fmt.Sprintf("core: pipeline channels %d..%d do not step by %d", c.base, r.at(r.n-1).ch, 1<<shift))
	}
	return c
}

// slot returns the index of the live slot with channel ch, -1 if none.
func (c *chanIndex) slot(ch int32) int32 {
	d := ch - c.base
	if d < 0 || d&(1<<c.shift-1) != 0 || d>>c.shift >= c.n {
		return -1
	}
	return d >> c.shift
}

// output is line 7 of Algorithm 1 for a pipeline of the given window: the
// oldest live instance's output once it has run its full window-1 rounds;
// ⊥ while the pipeline is still warming up.
func (r *slotRing) output(window int) problems.Value {
	if r.n == 0 {
		return problems.Bot
	}
	front := r.at(0)
	if front.age < window-1 {
		return problems.Bot
	}
	return front.inst.Output()
}

// broadcastOn appends inst's Broadcast to buf under the PRF purpose base
// pb, tagging its sub-messages with channel ch. ictx is the combiner's
// reusable callback context.
func broadcastOn(ictx, ctx *engine.Ctx, inst NodeInstance, pb prf.Purpose, ch int32, buf []engine.SubMsg) []engine.SubMsg {
	*ictx = *ctx
	ictx.PurposeBase = pb
	start := len(buf)
	buf = inst.Broadcast(ictx, buf)
	for i := start; i < len(buf); i++ {
		buf[i].Chan = ch
	}
	return buf
}

// broadcast appends every live instance's Broadcast to buf, each on its
// own channel.
func (r *slotRing) broadcast(ictx, ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	for i := 0; i < r.n; i++ {
		s := r.at(i)
		buf = broadcastOn(ictx, ctx, s.inst, dalgPurpose(s.ch), s.ch, buf)
	}
	return buf
}

// processRound runs one round's Process for all instances at a node. The
// inbox is demultiplexed in one pass: channel 0 goes to salg, any other
// channel to the live slot of rings (channels stepping by 1<<shift)
// that carries it, or nowhere. Every slot then ages one round. At most
// two rings (Chain's mid and outer pipelines).
func processRound(ictx, ctx *engine.Ctx, in []engine.Incoming, deg int, salg NodeInstance, shift uint, rings ...*slotRing) {
	var idx [2]chanIndex
	nb := 1
	for k, r := range rings {
		idx[k] = r.index(shift)
		nb += r.n
	}
	d := getDemux(len(in), nb)
	slot, count := d.slot, d.off[1:]
	for i := range in {
		b := int32(0)
		if ch := in[i].M.Chan; ch != 0 {
			b = -1
			first := int32(1)
			for k, r := range rings {
				if s := idx[k].slot(ch); s >= 0 {
					b = first + s
					break
				}
				first += int32(r.n)
			}
		}
		slot[i] = b
		if b >= 0 {
			count[b]++
		}
	}
	d.split(in)
	*ictx = *ctx
	ictx.PurposeBase = instancePurpose(0)
	salg.Process(ictx, d.bucket(0), deg)
	b := 1
	for _, r := range rings {
		for i := 0; i < r.n; i++ {
			s := r.at(i)
			*ictx = *ctx
			ictx.PurposeBase = dalgPurpose(s.ch)
			s.inst.Process(ictx, d.bucket(b), deg)
			s.age++
			b++
		}
	}
	d.release()
}

// demux is a combiner's per-round inbox split: a stable counting sort of
// the messages into one flat buffer, one contiguous run per instance
// bucket. It is call-scoped scratch drawn from demuxPool, which caches
// one per P — in practice one per engine worker — so the working set of a
// round stays a few cache-resident kilobytes instead of a bucket array
// per node.
type demux struct {
	slot []int32 // bucket of each inbox message, -1 = no live instance
	off  []int   // counts, then bucket ends: bucket b is buf[off[b-1]:off[b]]
	buf  []engine.Incoming
}

var demuxPool = sync.Pool{New: func() any { return new(demux) }}

// getDemux returns pooled scratch for an inbox of m messages over nb
// buckets. The caller fills slot[:m] with each message's bucket (-1:
// dropped), counts bucket b's messages in off[b+1], and calls split.
func getDemux(m, nb int) *demux {
	d := demuxPool.Get().(*demux)
	if cap(d.slot) < m {
		c := m + m/4
		d.slot = make([]int32, c)
		d.buf = make([]engine.Incoming, c)
	}
	if cap(d.off) < nb+1 {
		d.off = make([]int, nb+1)
	}
	d.slot = d.slot[:m]
	d.off = d.off[:nb+1]
	clear(d.off)
	return d
}

// split groups in by the filled buckets, preserving inbox order
// (ascending senders) within each bucket. The prefix sum turns off[b]
// into bucket b's start, which then serves as its write cursor, leaving
// off[b] at the bucket's end.
func (d *demux) split(in []engine.Incoming) {
	off := d.off
	for b := 1; b < len(off); b++ {
		off[b] += off[b-1]
	}
	buf := d.buf[:cap(d.buf)]
	for i, b := range d.slot {
		if b >= 0 {
			buf[off[b]] = in[i]
			off[b]++
		}
	}
}

// bucket returns bucket b of the last split, valid until release.
func (d *demux) bucket(b int) []engine.Incoming {
	lo, hi := 0, d.off[b]
	if b > 0 {
		lo = d.off[b-1]
	}
	return d.buf[lo:hi:hi]
}

// release returns the scratch to the pool.
func (d *demux) release() { demuxPool.Put(d) }
