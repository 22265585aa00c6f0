package core

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// Concat is Algorithm 1 / Theorem 1.1: it runs one instance of a
// (T2, α)-network-static algorithm SAlg from each node's wake-up round,
// and a pipeline of T1-1 concurrently live instances of a T1-dynamic
// algorithm DAlg. In every round r each node starts a fresh DAlg instance
// on its current SAlg output φ_{r-1}, discards the oldest instance, and
// outputs the oldest live instance — which by then has run for T1-1 rounds
// and (property A.2) extends a partial solution into a T1-dynamic solution.
// If the α-neighborhood of a node is static, SAlg's output freezes within
// T2 rounds (property B.2) and, because DAlg is input-extending (A.1), so
// does Concat's output: Theorem 1.1(2).
//
// Instance alignment across nodes uses the engine round as the channel id.
// The paper notes a common global round counter is not needed; operationally
// every message could carry its instance's age instead, which identifies
// the instance uniquely among the T1-1 live ones. The engine round is the
// same information precomputed.
type Concat struct {
	D DynamicAlgorithm
	S NetworkStaticAlgorithm
	N int

	T1   int
	T2   int
	Bits func(m engine.SubMsg) int
}

// NewConcat builds the combined algorithm for a universe of n nodes.
func NewConcat(d DynamicAlgorithm, s NetworkStaticAlgorithm, n int) *Concat {
	t1 := d.WindowSize(n)
	if t1 < 2 {
		panic(fmt.Sprintf("core: dynamic window T1 = %d < 2", t1))
	}
	c := &Concat{D: d, S: s, N: n, T1: t1, T2: s.StabilizationTime(n)}
	db, dOK := d.(MessageBitsFunc)
	sb, sOK := s.(MessageBitsFunc)
	if dOK && sOK {
		c.Bits = func(m engine.SubMsg) int {
			if m.Chan == 0 {
				return sb.MessageBits(m)
			}
			return db.MessageBits(m)
		}
	}
	return c
}

// Name implements engine.Algorithm.
func (c *Concat) Name() string {
	return fmt.Sprintf("concat(%s,%s)", c.D.Name(), c.S.Name())
}

// Alpha returns the locality radius inherited from the network-static part.
func (c *Concat) Alpha() int { return c.S.Alpha() }

// StabilityWait returns T1+T2: by Theorem 1.1(2) the output of a node
// whose α-ball is static from round r on is fixed from round r+T1+T2.
func (c *Concat) StabilityWait() int { return c.T1 + c.T2 }

// MessageBits implements engine.BitSizer when both parts declare sizes.
func (c *Concat) MessageBits(m engine.SubMsg) int {
	if c.Bits == nil {
		return 0
	}
	return c.Bits(m)
}

// NewNode implements engine.Algorithm.
func (c *Concat) NewNode(v graph.NodeID) engine.NodeProc {
	return &concatProc{c: c, v: v}
}

type concatProc struct {
	c    *Concat
	v    graph.NodeID
	salg NodeInstance
	dal  slotRing // T1-1 live DAlg instances, oldest first
	// ictx is the reusable context handed to instance callbacks: passing
	// a fresh stack copy through the NodeInstance interface would escape
	// to the heap on every call — one allocation per instance per round.
	// Instances must not retain the pointer beyond the call (they don't).
	ictx engine.Ctx
}

// dalgPurpose derives the purpose base of a dynamic instance channel,
// avoiding slot 0 (reserved for SAlg). Collisions between live instances
// are impossible for T1-1 < purposeSlots-1.
func dalgPurpose(ch int32) prf.Purpose {
	slot := 1 + (uint32(ch)-1)%(purposeSlots-1)
	return instancePurpose(int32(slot))
}

func (p *concatProc) Start(ctx *engine.Ctx, input problems.Value) {
	p.salg = p.c.S.NewNode(p.v)
	sctx := *ctx
	sctx.PurposeBase = instancePurpose(0)
	p.salg.Start(&sctx, input)
}

func (p *concatProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	// Line 1 of Algorithm 1: start a new DAlg instance on the current
	// SAlg output.
	ch := int32(ctx.Round)
	inst := p.c.D.NewNode(p.v)
	p.ictx = *ctx
	p.ictx.PurposeBase = dalgPurpose(ch)
	inst.Start(&p.ictx, p.salg.Output())
	// Lines 2-3: the pipeline holds T1-1 live instances; the oldest
	// retires once it is full.
	p.dal.push(dSlot{ch: ch, inst: inst}, p.c.T1-1)

	// SAlg sub-messages on channel 0, each live DAlg instance on its own.
	buf = broadcastOn(&p.ictx, ctx, p.salg, instancePurpose(0), 0, buf)
	return p.dal.broadcast(&p.ictx, ctx, buf)
}

// Process demultiplexes the inbox — SAlg on channel 0, the live DAlg
// instances on the consecutive engine rounds of their starts — and runs
// every instance on its share.
func (p *concatProc) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	processRound(&p.ictx, ctx, in, deg, p.salg, 0, &p.dal)
}

// Output implements line 7 of Algorithm 1: the output of the oldest live
// DAlg instance once it has run its full T1-1 rounds; ⊥ while the pipeline
// is still warming up after the node's wake round.
func (p *concatProc) Output() problems.Value { return p.dal.output(p.c.T1) }
