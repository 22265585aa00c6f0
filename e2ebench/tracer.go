package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"dynlocal"
)

// tracer collects the per-layer numbers of one traced episode. It times the
// public calls into each layer from outside — Engine.Step, the
// adversary's Step (through a wrapper), TDynamicChecker.Feed, the trace
// codec and the checkpoint calls — and takes a CPU profile of the timed
// loop for the layers that run inside Engine.Step. Every method is a
// no-op on a nil tracer, so untraced runs pay only a nil check.
type tracer struct {
	advCur time.Duration // adversary time inside the current Step

	rounds, recRounds int
	loop              time.Duration
	stepMs, selfMs    []float64
	advUs, feedUs     []float64
	step, adv, feed   time.Duration
	enc               time.Duration
	encBytes          int
	dec               time.Duration
	decBytes          int

	baseMs, deltaMs       []float64
	baseBytes, deltaBytes []float64
	ckptWrite             time.Duration
	ckptWriteBytes        int
	ckptLoop              time.Duration
	restoreDur            time.Duration
	restoreBytes          int

	messages, changed, wake, edgeChanges int64
	coreNodes                            []float64

	mallocs, allocBytes uint64
	mem0                runtime.MemStats
	prof                bytes.Buffer
	samples             map[string]int64 // CPU samples inside Engine.Step, by layer
	profErr             error
}

func newTracer() *tracer { return &tracer{samples: map[string]int64{}} }

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// beginLoop starts the CPU profile and the allocation count of one
// timed loop.
func (t *tracer) beginLoop() {
	if t == nil {
		return
	}
	t.advCur = 0
	runtime.ReadMemStats(&t.mem0)
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil && t.profErr == nil {
		t.profErr = fmt.Errorf("starting CPU profile: %w", err)
	}
}

// endLoop stops the profile and attributes its samples.
func (t *tracer) endLoop(rounds int, loop time.Duration) {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.mallocs += m.Mallocs - t.mem0.Mallocs
	t.allocBytes += m.TotalAlloc - t.mem0.TotalAlloc
	t.rounds += rounds
	t.loop += loop
	if err := attribute(t.prof.Bytes(), t.samples); err != nil && t.profErr == nil {
		t.profErr = fmt.Errorf("reading CPU profile: %w", err)
	}
}

// round records the spans and counts of one round: t0 starts Step, t1
// ends Step and starts Feed, t2 ends Feed and starts WriteRound when the
// workload records; d is the whole round.
func (t *tracer) round(t0, t1, t2 time.Time, d time.Duration, recording bool, info *dynlocal.RoundInfo, rep dynlocal.TDynamicReport) {
	if t == nil {
		return
	}
	step, feed := t1.Sub(t0), t2.Sub(t1)
	t.step += step
	t.adv += t.advCur
	t.feed += feed
	t.stepMs = append(t.stepMs, ms(step))
	t.selfMs = append(t.selfMs, ms(step-t.advCur))
	t.advUs = append(t.advUs, float64(t.advCur)/1e3)
	t.feedUs = append(t.feedUs, float64(feed)/1e3)
	t.advCur = 0
	if recording {
		t.enc += d - t2.Sub(t0)
	}
	t.messages += int64(info.Messages)
	t.changed += int64(len(info.Changed))
	t.wake += int64(len(info.Wake))
	t.edgeChanges += int64(len(info.EdgeAdds) + len(info.EdgeRemoves))
	t.coreNodes = append(t.coreNodes, float64(rep.CoreNodes))
}

// encodeClose records the encoder's final flush and the size of a trace
// of rounds rounds.
func (t *tracer) encodeClose(d time.Duration, traceBytes, rounds int) {
	if t == nil {
		return
	}
	t.enc += d
	t.encBytes += traceBytes
	t.recRounds += rounds
}

func (t *tracer) ckpt(base bool, d time.Duration, n int) {
	if t == nil {
		return
	}
	if base {
		t.baseMs = append(t.baseMs, ms(d))
		t.baseBytes = append(t.baseBytes, float64(n))
	} else {
		t.deltaMs = append(t.deltaMs, ms(d))
		t.deltaBytes = append(t.deltaBytes, float64(n))
	}
	t.ckptWrite += d
	t.ckptWriteBytes += n
}

func (t *tracer) ckptInLoop(d time.Duration) {
	if t != nil {
		t.ckptLoop += d
	}
}

func (t *tracer) restore(d time.Duration, n int) {
	if t != nil {
		t.restoreDur += d
		t.restoreBytes += n
	}
}

func (t *tracer) decode(d time.Duration, n int) {
	if t != nil {
		t.dec += d
		t.decBytes += n
	}
}

// wrap returns adv behind a wrapper that times its Step. The wrapper
// embeds the concrete adversary, so every optional interface the engine
// type-asserts (Checkpointer, DeltaCheckpointer) is forwarded and a
// traced run checkpoints and restores exactly like an untraced one.
func (t *tracer) wrap(adv dynlocal.Adversary) dynlocal.Adversary {
	switch a := adv.(type) {
	case *dynlocal.ChurnAdversary:
		return timedChurn{a, t}
	case *dynlocal.EdgeMarkovAdversary:
		return timedMarkov{a, t}
	case *dynlocal.P2PChurnAdversary:
		return timedP2P{a, t}
	}
	panic(fmt.Sprintf("e2ebench: no timing wrapper for adversary %T", adv))
}

func (t *tracer) timeStep(step func(dynlocal.AdversaryView) dynlocal.AdversaryStep, v dynlocal.AdversaryView) dynlocal.AdversaryStep {
	t0 := time.Now()
	st := step(v)
	t.advCur += time.Since(t0)
	return st
}

type timedChurn struct {
	*dynlocal.ChurnAdversary
	t *tracer
}

func (a timedChurn) Step(v dynlocal.AdversaryView) dynlocal.AdversaryStep {
	return a.t.timeStep(a.ChurnAdversary.Step, v)
}

type timedMarkov struct {
	*dynlocal.EdgeMarkovAdversary
	t *tracer
}

func (a timedMarkov) Step(v dynlocal.AdversaryView) dynlocal.AdversaryStep {
	return a.t.timeStep(a.EdgeMarkovAdversary.Step, v)
}

type timedP2P struct {
	*dynlocal.P2PChurnAdversary
	t *tracer
}

func (a timedP2P) Step(v dynlocal.AdversaryView) dynlocal.AdversaryStep {
	return a.t.timeStep(a.P2PChurnAdversary.Step, v)
}

// value is one named metric value.
type value struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// layers returns the per-layer metrics of one traced episode. Layers the
// workload never calls report 0.
func (t *tracer) layers() []value {
	var vs []value
	add := func(name, unit string, v float64) { vs = append(vs, value{name, unit, v}) }
	loop := t.loop.Seconds()
	rounds := float64(t.rounds)
	add("engine.step_ms_p50", "ms", quantile(t.stepMs, 0.5))
	add("engine.self_ms_p50", "ms", quantile(t.selfMs, 0.5))
	add("engine.busy_frac", "ratio", t.step.Seconds()/loop)
	add("adversary.step_us_p50", "us", quantile(t.advUs, 0.5))
	add("adversary.busy_frac", "ratio", t.adv.Seconds()/loop)
	add("verify.feed_us_p50", "us", quantile(t.feedUs, 0.5))
	add("verify.busy_frac", "ratio", t.feed.Seconds()/loop)
	add("dyngraph.encode_mb_per_s", "MB/s", rate(t.encBytes, t.enc))
	add("dyngraph.decode_mb_per_s", "MB/s", rate(t.decBytes, t.dec))
	add("dyngraph.trace_bytes_per_round", "B/round", ratio(float64(t.encBytes), float64(t.recRounds)))
	add("dyngraph.busy_frac", "ratio", t.enc.Seconds()/loop)
	add("ckpt.base_ms_p50", "ms", quantile(t.baseMs, 0.5))
	add("ckpt.delta_ms_p50", "ms", quantile(t.deltaMs, 0.5))
	add("ckpt.write_mb_per_s", "MB/s", rate(t.ckptWriteBytes, t.ckptWrite))
	add("ckpt.restore_mb_per_s", "MB/s", rate(t.restoreBytes, t.restoreDur))
	add("ckpt.base_bytes", "B", quantile(t.baseBytes, 0.5))
	add("ckpt.delta_bytes_p50", "B", quantile(t.deltaBytes, 0.5))
	add("ckpt.busy_frac", "ratio", t.ckptLoop.Seconds()/loop)
	add("engine.messages_per_round", "count", float64(t.messages)/rounds)
	add("engine.changed_per_round", "count", float64(t.changed)/rounds)
	add("engine.wake_per_round", "count", float64(t.wake)/rounds)
	add("adversary.edge_changes_per_round", "count", float64(t.edgeChanges)/rounds)
	add("verify.core_nodes_p50", "count", quantile(t.coreNodes, 0.5))
	total := t.cpuSamples()
	other := total
	for _, l := range cpuLayers {
		add(l+".cpu_share", "ratio", ratio(float64(t.samples[l]), float64(total)))
		other -= t.samples[l]
	}
	add("unattributed.cpu_share", "ratio", ratio(float64(other), float64(total)))
	add("allocs_per_round", "allocs/round", float64(t.mallocs)/rounds)
	add("alloc_mb_per_round", "MB/round", float64(t.allocBytes)/1e6/rounds)
	return vs
}

func (t *tracer) cpuSamples() int64 {
	var total int64
	for _, c := range t.samples {
		total += c
	}
	return total
}

// cpuLayers are the layers with a CPU share of their own; samples in any
// other dynlocal package, or in none, are unattributed.
var cpuLayers = []string{"core", "algos", "engine", "graph", "prf", "adversary", "problems", layerMap, layerGC}

func rate(bytes int, d time.Duration) float64 { return ratio(float64(bytes)/1e6, d.Seconds()) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
