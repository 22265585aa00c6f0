package dynlocal

import (
	"fmt"
	"slices"
	"testing"
)

// pipelineRun records every round's outputs and message accounting of a
// combined-algorithm run under churn.
func pipelineRun(n, workers, rounds int, algo Algorithm) []string {
	adv := NewChurn(GNP(n, 8.0/float64(n), 3), n/64, n/64, 4)
	eng := NewEngine(EngineConfig{N: n, Seed: 9, Workers: workers}, adv, algo)
	var trace []string
	eng.OnRound(func(info *RoundInfo) {
		trace = append(trace, fmt.Sprint(info.Outputs, info.Changed, info.Messages, info.Bits))
	})
	eng.Run(rounds)
	return trace
}

// TestCombinedPipelinesDeterministicAcrossWorkers pins the combined
// round's per-worker scratch (the engine's inbox, the combiners' demux
// buffers): Concat coloring and the Chain MIS pipeline must produce
// bit-identical outputs and accounting for Workers 1, 2 and 4, at a size
// where rounds are sharded.
func TestCombinedPipelinesDeterministicAcrossWorkers(t *testing.T) {
	const n = 1024
	for name, mk := range map[string]func() Algorithm{
		"coloring": func() Algorithm { return NewColoring(n) },
		"chain":    func() Algorithm { return NewChainedMIS(n, 8) },
	} {
		ref := pipelineRun(n, 1, 48, mk())
		for _, w := range []int{2, 4} {
			if got := pipelineRun(n, w, 48, mk()); !slices.Equal(got, ref) {
				t.Errorf("%s: Workers=%d diverges from Workers=1", name, w)
			}
		}
	}
}
