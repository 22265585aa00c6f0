package verify_test

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

// ExampleNewTDynamic checks a fixed coloring of the 4-path under a
// transient extra edge. The conflict edge {0,2} (both endpoints colored
// 1) appears in round 4 only: it immediately enters the union graph
// G^∪T but never survives T consecutive rounds, so it never reaches the
// intersection graph G^∩T — and the packing (properness) condition is
// judged on G^∩T, so the T-dynamic guarantee holds every round. Held
// for T rounds instead, the edge enters G^∩T and the checker flags it.
func ExampleNewTDynamic() {
	const n = 4
	const T = 3
	path := graph.Path(n).EdgeKeys() // 0-1-2-3
	extra := []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}
	out := []problems.Value{1, 2, 1, 2} // proper on the path, 0 and 2 share color 1
	all := []graph.NodeID{0, 1, 2, 3}

	// Each round is fed as its delta against the previous round: the
	// edges that appeared and disappeared, the nodes that woke up and the
	// nodes whose output changed.
	check := verify.NewTDynamic(problems.Coloring(), T, n)
	rounds := []engine.RoundDelta{
		{EdgeAdds: path, Wake: all, Changed: all}, // everyone wakes in round 1
		{}, {},
		{EdgeAdds: extra},    // the conflict edge appears in round 4 ...
		{EdgeRemoves: extra}, // ... and is gone again in round 5
		{},
	}
	for i, d := range rounds {
		d.Round, d.Outputs = i+1, out
		rep := check.Feed(d)
		fmt.Printf("round %d: core=%d valid=%v\n", rep.Round, rep.CoreNodes, rep.Valid())
	}

	// Keep the conflict edge for T consecutive rounds: it enters G^∩T.
	var rep verify.TDynamicReport
	for i := 0; i < T; i++ {
		d := engine.RoundDelta{Round: len(rounds) + 1 + i, Outputs: out}
		if i == 0 {
			d.EdgeAdds = extra
		}
		rep = check.Feed(d)
	}
	fmt.Printf("after %d conflict rounds: valid=%v packing violations=%d\n",
		T, rep.Valid(), len(rep.PackingViolations))
	// Output:
	// round 1: core=0 valid=true
	// round 2: core=0 valid=true
	// round 3: core=4 valid=true
	// round 4: core=4 valid=true
	// round 5: core=4 valid=true
	// round 6: core=4 valid=true
	// after 3 conflict rounds: valid=false packing violations=1
}
