package verify

import (
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// refChecker is the reference T-dynamic checker the delta-fed TDynamic is
// property-tested against. It is built directly on Definition 2.1 and
// shares no code with dyngraph.Window, so a window bug cannot corrupt
// the reference and the checker under test alike: it keeps the last T
// round graphs and the wake rounds, rebuilds G^∩T_r and G^∪T_r with
// graph.IntersectAll/UnionAll and rescans them with CheckFull. While the
// window still reaches back to the empty round 0 (r < T), G^∩T_r and
// V^∩T_r are empty, so there is nothing to check.
type refChecker struct {
	pc      problems.PC
	t       int
	round   int
	history []*graph.Graph // the last t round graphs, oldest first
	wake    []int          // wake[v] = round v woke up, 0 if still asleep

	rounds, invalidRounds, totalPacking, totalCover, totalBotCore int
}

func newRefChecker(pc problems.PC, t, n int) *refChecker {
	return &refChecker{pc: pc, t: t, wake: make([]int, n)}
}

// observe checks the next round's graph, wake set and output snapshot. g
// is cloned, so pooled engine graphs may be passed.
func (c *refChecker) observe(g *graph.Graph, wake []graph.NodeID, out []problems.Value) TDynamicReport {
	c.round++
	for _, v := range wake {
		if c.wake[v] == 0 {
			c.wake[v] = c.round
		}
	}
	c.history = append(c.history, g.Clone())
	if len(c.history) > c.t {
		c.history = c.history[1:]
	}
	rep := TDynamicReport{Round: c.round}
	var core []graph.NodeID
	if r0 := c.round - c.t + 1; r0 >= 1 {
		for v, w := range c.wake {
			if w != 0 && w <= r0 {
				core = append(core, graph.NodeID(v))
				if out[v] == problems.Bot {
					rep.BotCore++
				}
			}
		}
	}
	rep.CoreNodes = len(core)
	if len(core) > 0 {
		// CheckFull re-reports ⊥ nodes; keep only genuine property
		// violations, ⊥ is accounted by BotCore.
		rep.PackingViolations = dropBot(c.pc.P.CheckFull(graph.IntersectAll(c.history), out, core), out)
		rep.CoverViolations = dropBot(c.pc.C.CheckFull(graph.UnionAll(c.history), out, core), out)
	}
	c.rounds++
	if !rep.Valid() {
		c.invalidRounds++
	}
	c.totalPacking += len(rep.PackingViolations)
	c.totalCover += len(rep.CoverViolations)
	c.totalBotCore += rep.BotCore
	return rep
}

// Totals mirrors TDynamic.Totals.
func (c *refChecker) Totals() (rounds, invalidRounds, packing, cover, botCore int) {
	return c.rounds, c.invalidRounds, c.totalPacking, c.totalCover, c.totalBotCore
}

func dropBot(vs []problems.Violation, out []problems.Value) []problems.Violation {
	var kept []problems.Violation
	for _, v := range vs {
		if out[v.Node] != problems.Bot {
			kept = append(kept, v)
		}
	}
	return kept
}

// graphFeed drives a TDynamic from whole round graphs and output vectors,
// as a caller outside the engine does: it diffs each graph's edge keys
// and each output vector against the previous round's, then calls Feed.
type graphFeed struct {
	*TDynamic
	round    int
	prevKeys []graph.EdgeKey
	prevOut  []problems.Value
}

func newGraphFeed(c *TDynamic) *graphFeed {
	return &graphFeed{TDynamic: c, prevOut: make([]problems.Value, c.Window().N())}
}

// Observe feeds the next round.
func (f *graphFeed) Observe(g *graph.Graph, wake []graph.NodeID, out []problems.Value) TDynamicReport {
	f.round++
	adds, removes := graph.DiffSortedKeys(f.prevKeys, g.EdgeKeys(), nil, nil)
	f.prevKeys = append(f.prevKeys[:0], g.EdgeKeys()...)
	return f.Feed(engine.RoundDelta{
		Round: f.round, EdgeAdds: adds, EdgeRemoves: removes,
		Wake: wake, Outputs: out, Changed: outputDiff(f.prevOut, out),
	})
}

// outputDiff returns, ascending, the nodes whose entry in out differs
// from prev, and copies out into prev.
func outputDiff(prev, out []problems.Value) []graph.NodeID {
	var changed []graph.NodeID
	for i, val := range out {
		if val != prev[i] {
			changed = append(changed, graph.NodeID(i))
			prev[i] = val
		}
	}
	return changed
}
