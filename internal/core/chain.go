package core

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Chain is the triple combiner sketched in the remark of Section 3:
// "In principle, using the same technique, one could also combine more
// than two algorithms. One could for example imagine to also have a
// dynamic network algorithm that has stronger guarantees, but only works
// in dynamic networks with much more limited dynamic changes."
//
// The network-static algorithm S runs continuously as before. Its output
// seeds a pipeline of Mid instances — a dynamic algorithm with a smaller
// window Tm whose outputs are the stronger guarantee under limited
// dynamics — and the mid-pipeline's output in turn seeds the outer
// pipeline of D instances with the full window T1. The chained algorithm
//
//	a) converges to a locally stable solution where the graph is locally
//	   static (within T1+Tm+T2 rounds),
//	b) under limited dynamics effectively carries the mid algorithm's
//	   Tm-dynamic guarantee through (the outer pipeline extends inputs
//	   that are already complete), and
//	c) always outputs a T1-dynamic solution, for arbitrary dynamics —
//	   because the outer dynamic algorithm re-witnesses its inputs (see
//	   the input-sanitization notes in the algorithm implementations),
//	   invalid mid outputs caused by heavy dynamics cannot poison it.
//
// Channel layout: 0 = S; even channels 2r = mid instance started in
// round r; odd channels 2r+1 = outer instance started in round r.
type Chain struct {
	D   DynamicAlgorithm
	Mid DynamicAlgorithm
	S   NetworkStaticAlgorithm
	N   int

	T1 int
	Tm int
	T2 int

	// MidProbe, if set, receives each node's mid-pipeline output after
	// every round. The outer pipeline's latency (T1-1 rounds) means
	// freshness-style guarantees of the mid algorithm are observable
	// here, at the mid layer, rather than in the final output; consumers
	// that want the stronger limited-dynamics guarantee read this layer.
	// Called concurrently from engine workers; implementations must be
	// safe.
	MidProbe func(v graph.NodeID, round int, out problems.Value)
}

// NewChain builds the triple combination for a universe of n nodes.
func NewChain(d, mid DynamicAlgorithm, s NetworkStaticAlgorithm, n int) *Chain {
	t1 := d.WindowSize(n)
	tm := mid.WindowSize(n)
	if t1 < 2 || tm < 2 {
		panic(fmt.Sprintf("core: chain windows T1=%d, Tm=%d must be >= 2", t1, tm))
	}
	return &Chain{D: d, Mid: mid, S: s, N: n, T1: t1, Tm: tm, T2: s.StabilizationTime(n)}
}

// Name implements engine.Algorithm.
func (c *Chain) Name() string {
	return fmt.Sprintf("chain(%s,%s,%s)", c.D.Name(), c.Mid.Name(), c.S.Name())
}

// Alpha returns the locality radius inherited from the network-static part.
func (c *Chain) Alpha() int { return c.S.Alpha() }

// StabilityWait returns T1+Tm+T2: the analogue of Theorem 1.1(2) for the
// three-layer pipeline.
func (c *Chain) StabilityWait() int { return c.T1 + c.Tm + c.T2 }

// NewNode implements engine.Algorithm.
func (c *Chain) NewNode(v graph.NodeID) engine.NodeProc {
	return &chainProc{c: c, v: v}
}

type chainProc struct {
	c    *Chain
	v    graph.NodeID
	salg NodeInstance
	mids slotRing // Tm-1 live mid instances, oldest first
	outs slotRing // T1-1 live outer instances, oldest first
	// ictx: see concatProc — reusable callback context (a stack copy
	// would heap-escape per instance call).
	ictx engine.Ctx
}

func (p *chainProc) Start(ctx *engine.Ctx, input problems.Value) {
	p.salg = p.c.S.NewNode(p.v)
	sctx := *ctx
	sctx.PurposeBase = instancePurpose(0)
	p.salg.Start(&sctx, input)
}

// midOutput is the mid-pipeline's current output: the oldest mid instance
// that has run its full Tm-1 rounds (⊥ during warm-up).
func (p *chainProc) midOutput() problems.Value { return p.mids.output(p.c.Tm) }

func (p *chainProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	// Capture the mid-pipeline output of the previous round before any
	// mutation (the outer pipeline's φ_{r-1}).
	midPrev := p.midOutput()

	// Start this round's mid instance on the static algorithm's output.
	midCh := int32(2 * ctx.Round)
	mi := p.c.Mid.NewNode(p.v)
	p.ictx = *ctx
	p.ictx.PurposeBase = dalgPurpose(midCh)
	mi.Start(&p.ictx, p.salg.Output())
	p.mids.push(dSlot{ch: midCh, inst: mi}, p.c.Tm-1)

	// Start this round's outer instance on the mid-pipeline output.
	outCh := int32(2*ctx.Round + 1)
	oi := p.c.D.NewNode(p.v)
	p.ictx = *ctx
	p.ictx.PurposeBase = dalgPurpose(outCh)
	oi.Start(&p.ictx, midPrev)
	p.outs.push(dSlot{ch: outCh, inst: oi}, p.c.T1-1)

	// Broadcast all three layers with channel tags.
	buf = broadcastOn(&p.ictx, ctx, p.salg, instancePurpose(0), 0, buf)
	buf = p.mids.broadcast(&p.ictx, ctx, buf)
	return p.outs.broadcast(&p.ictx, ctx, buf)
}

// Process demultiplexes the inbox — S on channel 0, the mid pipeline on
// even channels 2r, the outer pipeline on odd channels 2r+1 — and runs
// every instance on its share.
func (p *chainProc) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	processRound(&p.ictx, ctx, in, deg, p.salg, 1, &p.mids, &p.outs)
	if p.c.MidProbe != nil {
		p.c.MidProbe(p.v, ctx.Round, p.midOutput())
	}
}

// Output is the oldest mature outer instance, as in Algorithm 1.
func (p *chainProc) Output() problems.Value { return p.outs.output(p.c.T1) }
