package engine_test

// Engine ≡ reference equivalence: the engine's active-set walk must be
// observably indistinguishable from refWalk, the serial model of Section
// 2 in refwalk_test.go — bit-identical outputs, changed feeds, topology
// deltas and message/bit accounting, every round, for every worker count.
// The matrix crosses the four adversary schedules used across the repo's
// tests with the two combined framework algorithms (never quiescent:
// exercises the pure active-set walk) and standalone DMis (terminally
// quiescent Dominated nodes: exercises the drop/grace/revival machinery,
// which the reference walk does not have), plus degAlgo, whose output
// follows its degree, so a dropped node that misses an edge-churn touch
// shows. The -race CI job runs this file, so the sharded phases are raced
// too.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

type fullTrace struct {
	outputs  [][]problems.Value
	changed  [][]graph.NodeID
	adds     [][]graph.EdgeKey
	removes  [][]graph.EdgeKey
	messages []int
	bits     []int64
}

// runSeed is the engine seed of both walks in the equivalence suite.
const runSeed = 77

func runTrace(n, workers, rounds int, adv adversary.Adversary, algo engine.Algorithm) fullTrace {
	e := engine.New(engine.Config{N: n, Seed: runSeed, Workers: workers}, adv, algo)
	var tr fullTrace
	e.OnRound(func(info *engine.RoundInfo) {
		tr.outputs = append(tr.outputs, append([]problems.Value(nil), info.Outputs...))
		tr.changed = append(tr.changed, append([]graph.NodeID(nil), info.Changed...))
		tr.adds = append(tr.adds, append([]graph.EdgeKey(nil), info.EdgeAdds...))
		tr.removes = append(tr.removes, append([]graph.EdgeKey(nil), info.EdgeRemoves...))
		tr.messages = append(tr.messages, info.Messages)
		tr.bits = append(tr.bits, info.Bits)
	})
	e.Run(rounds)
	return tr
}

func diffFullTraces(t *testing.T, label string, ref, got fullTrace) {
	t.Helper()
	if len(ref.outputs) != len(got.outputs) {
		t.Fatalf("%s: %d rounds, reference has %d", label, len(got.outputs), len(ref.outputs))
	}
	for r := range ref.outputs {
		if ref.messages[r] != got.messages[r] {
			t.Fatalf("%s: round %d messages ref=%d engine=%d", label, r+1, ref.messages[r], got.messages[r])
		}
		if ref.bits[r] != got.bits[r] {
			t.Fatalf("%s: round %d bits ref=%d engine=%d", label, r+1, ref.bits[r], got.bits[r])
		}
		for v := range ref.outputs[r] {
			if ref.outputs[r][v] != got.outputs[r][v] {
				t.Fatalf("%s: round %d node %d output ref=%d engine=%d",
					label, r+1, v, ref.outputs[r][v], got.outputs[r][v])
			}
		}
		if !slices.Equal(ref.changed[r], got.changed[r]) {
			t.Fatalf("%s: round %d changed ref=%v engine=%v", label, r+1, ref.changed[r], got.changed[r])
		}
		for name, pair := range map[string][2][]graph.EdgeKey{
			"adds":    {ref.adds[r], got.adds[r]},
			"removes": {ref.removes[r], got.removes[r]},
		} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("%s: round %d %s diverge (ref %d, engine %d edges)", label, r+1, name, len(pair[0]), len(pair[1]))
			}
		}
	}
}

func TestEngineMatchesReferenceWalk(t *testing.T) {
	const n = 1024 // above the serial threshold: Workers=4 really shards
	const rounds = 20
	mkBase := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 6.0/float64(n), prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	schedules := []struct {
		name string
		mk   func(seed uint64) adversary.Adversary
	}{
		{"churn", func(seed uint64) adversary.Adversary {
			return &adversary.Churn{Base: mkBase(seed), Add: n / 24, Del: n / 24, Seed: seed + 1}
		}},
		{"edge-markov", func(seed uint64) adversary.Adversary {
			return &adversary.EdgeMarkov{Footprint: mkBase(seed), POn: 0.3, POff: 0.3, Seed: seed + 1}
		}},
		{"local-static", func(seed uint64) adversary.Adversary {
			base := mkBase(seed)
			return &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: seed + 1},
				Base:      base,
				Protected: []graph.NodeID{3, n / 2},
				Alpha:     2,
			}
		}},
		{"staggered-wake", func(seed uint64) adversary.Adversary {
			return &adversary.Wakeup{
				Inner:    &adversary.Churn{Base: mkBase(seed), Add: n / 24, Del: n / 24, Seed: seed + 1},
				Schedule: adversary.StaggeredSchedule(n, n/8),
			}
		}},
	}
	algos := []struct {
		name string
		mk   func() engine.Algorithm
	}{
		{"mis", func() engine.Algorithm { return mis.NewMIS(n) }},
		{"coloring", func() engine.Algorithm { return coloring.NewColoring(n) }},
		// Standalone DMis is the one algorithm with an engine.Quiescer:
		// confirmed Dominated nodes leave the active set, so this arm
		// proves dropped and revived nodes stay unobservable.
		{"dmis", func() engine.Algorithm { return mis.NewDynamic(n) }},
		// degAlgo's output follows its degree, so a dropped node that is
		// not re-run when one of its edges churns shows a stale output.
		{"degree", func() engine.Algorithm { return degAlgo{} }},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for si, sc := range schedules {
		for _, ac := range algos {
			t.Run(sc.name+"/"+ac.name, func(t *testing.T) {
				seed := uint64(31 + si)
				ref := refTrace(n, rounds, sc.mk(seed), ac.mk())
				for _, w := range workerCounts {
					got := runTrace(n, w, rounds, sc.mk(seed), ac.mk())
					diffFullTraces(t, fmt.Sprintf("workers=%d", w), ref, got)
				}
			})
		}
	}
}

// degAlgo is silent and outputs 1 + its round degree, reporting
// quiescent whenever asked. It breaks the Quiescer terminal contract on
// purpose: its output changes when its degree does, so it is exactly as
// correct as the engine's promise to re-run a dropped node whenever one
// of its edges is added or removed.
type degAlgo struct{}

func (degAlgo) Name() string                         { return "degree-quiet" }
func (degAlgo) NewNode(graph.NodeID) engine.NodeProc { return &degNode{} }

type degNode struct{ out problems.Value }

func (p *degNode) Start(*engine.Ctx, problems.Value) {}
func (p *degNode) Broadcast(_ *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	return buf
}
func (p *degNode) Process(_ *engine.Ctx, _ []engine.Incoming, deg int) {
	p.out = problems.Value(1 + deg)
}
func (p *degNode) Output() problems.Value { return p.out }
func (p *degNode) Quiescent() bool        { return true }

// qcAlgo decides instantly and is quiescent from its first output: each
// node's first Process sets output 1, then Broadcast stays empty and the
// output never changes. Per-node callback counters (node-owned, so safe
// under sharding) make the engine's drop behavior directly observable.
type qcAlgo struct{ calls []int32 }

func (a *qcAlgo) Name() string { return "qc" }
func (a *qcAlgo) NewNode(v graph.NodeID) engine.NodeProc {
	return &qcNode{calls: &a.calls[v]}
}

type qcNode struct {
	calls *int32
	out   problems.Value
}

func (p *qcNode) Start(*engine.Ctx, problems.Value) {}
func (p *qcNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	return buf
}
func (p *qcNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	*p.calls++
	p.out = 1
}
func (p *qcNode) Output() problems.Value { return p.out }
func (p *qcNode) Quiescent() bool        { return p.out != problems.Bot }

// TestSparseQuiescentDropsAreFree pins the tentpole's point directly: on
// a static topology a terminally quiescent node stops getting callbacks
// the moment quiescence is detected — exactly 2 Process calls per node
// however long the run (the deciding round and the detection round; the
// grace rounds that fill the snapshot ring only copy its frozen value) —
// while its output stays exact in every later round.
func TestSparseQuiescentDropsAreFree(t *testing.T) {
	const n = 512
	const lag = 2
	g := graph.GNP(n, 8.0/float64(n), prf.NewStream(5, 0, 0, prf.PurposeWorkload))
	algo := &qcAlgo{calls: make([]int32, n)}
	e := engine.New(engine.Config{N: n, Seed: 9, OutputLag: lag}, adversary.Static{G: g}, algo)
	var last *engine.RoundInfo
	//dynlint:ignore loancheck only the final round's header is read, after Run stops playing rounds, so its pooled ring slot is never recycled
	e.OnRound(func(info *engine.RoundInfo) { last = info })
	e.Run(40)
	for v := 0; v < n; v++ {
		// Round 1 decides (output change), round 2 detects quiescence;
		// the grace rounds filling the snapshot ring skip Process
		// entirely, then the node drops.
		if got, want := algo.calls[v], int32(2); got != want {
			t.Fatalf("node %d processed %d rounds, want %d (drop after grace)", v, got, want)
		}
		if last.Outputs[v] != 1 {
			t.Fatalf("node %d output %d after drop, want 1", v, last.Outputs[v])
		}
	}
	if last.Messages != 0 {
		t.Fatalf("steady-state round delivers %d messages, want 0", last.Messages)
	}
}
