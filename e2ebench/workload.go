package main

import (
	"runtime"

	"dynlocal"
)

// spec is one workload: the run it builds from a seed and the shape of
// one episode over it. Every episode of a process replays the same seed,
// so its outputs, checker totals and checkpoint bytes must repeat exactly.
type spec struct {
	name string
	// n is the engine's id universe.
	n int
	// rounds is the episode length.
	rounds int
	// ckptEvery > 0 takes a chain checkpoint every ckptEvery rounds inside
	// the timed loop, rebasing every fullEvery records (dynsim's
	// -checkpoint-every and -checkpoint-full-every). 0 takes one base
	// checkpoint after the timed loop instead.
	ckptEvery, fullEvery int
	// record streams every round through the DYNT trace encoder.
	record  bool
	problem func() dynlocal.Problem
	// build returns the adversary and the combined algorithm; both are
	// fresh, so a restore can rebuild the exact same run.
	build func(s *spec, seed uint64) (dynlocal.Adversary, *dynlocal.Combined)
}

// workloads returns the benchmark's workloads at full size.
func workloads() []*spec {
	return []*spec{
		{
			name:    "coloring-churn",
			n:       4096,
			rounds:  100,
			problem: dynlocal.ColoringProblem,
			build: func(s *spec, seed uint64) (dynlocal.Adversary, *dynlocal.Combined) {
				g := dynlocal.GNP(s.n, 8/float64(s.n), seed)
				return dynlocal.NewChurn(g, 8, 8, seed+1), dynlocal.NewColoring(s.n)
			},
		},
		{
			name:    "mis-p2p",
			n:       65536,
			rounds:  200,
			problem: dynlocal.MISProblem,
			build: func(s *spec, seed uint64) (dynlocal.Adversary, *dynlocal.Combined) {
				adv := &dynlocal.P2PChurnAdversary{
					N:            s.n,
					Init:         s.n / 32,
					JoinPerRound: 8,
					SessionMin:   32,
					Events:       []dynlocal.MassDeparture{{Round: s.rounds / 2, Frac: 0.2}},
					Seed:         seed + 1,
				}
				return adv, dynlocal.NewMIS(s.n)
			},
		},
		{
			name:      "mis-ckpt",
			n:         4096,
			rounds:    98,
			ckptEvery: 4,
			fullEvery: 8,
			record:    true,
			problem:   dynlocal.MISProblem,
			build: func(s *spec, seed uint64) (dynlocal.Adversary, *dynlocal.Combined) {
				g := dynlocal.GNP(s.n, 8/float64(s.n), seed)
				return dynlocal.NewEdgeMarkov(g, 0.05, 0.05, seed+1), dynlocal.NewMIS(s.n)
			},
		},
	}
}

// lookup returns the named workload, or nil.
func lookup(name string) *spec {
	for _, s := range workloads() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// newRun builds engine and checker exactly as dynsim does, with one
// engine worker per CPU. A non-nil tracer wraps the adversary to time it.
func (s *spec) newRun(seed uint64, tr *tracer) (*dynlocal.Engine, *dynlocal.TDynamicChecker) {
	adv, algo := s.build(s, seed)
	if tr != nil {
		adv = tr.wrap(adv)
	}
	cfg := dynlocal.EngineConfig{N: s.n, Seed: seed, Workers: runtime.NumCPU()}
	return dynlocal.NewEngine(cfg, adv, algo), dynlocal.NewTDynamicChecker(s.problem(), algo.T1, s.n)
}
