package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"dynlocal"
)

const (
	// setupRepeats is how many times an episode builds its run; set-up
	// reports the median, and the last build is the one played.
	setupRepeats = 9
	// endCheckpoints is how many chain records a workload without in-loop
	// checkpoints writes after its timed loop: a base of the final state,
	// then a delta after each further round. Each is a pause sample.
	endCheckpoints = 4
	// extraRounds is how far every workload steps both the uninterrupted
	// and the restored run past the last checkpoint before comparing.
	extraRounds = 2
	// restores is how many fresh runs the final chain is restored into;
	// resume time is their median, and the last one is stepped and
	// compared.
	restores = 2
)

// episode is one set-up, timed round loop and verification of a
// workload. A round is Engine.Step plus TDynamicChecker.Feed, plus
// TraceStreamEncoder.WriteRound when the workload records.
type episode struct {
	spec *spec
	seed uint64
	tr   *tracer // nil in untraced runs

	eng   *dynlocal.Engine
	check *dynlocal.TDynamicChecker

	setup   time.Duration // median of setupRepeats builds
	loop    time.Duration // timed rounds plus in-loop checkpoint pauses
	roundMs []float64     // per-round latency, pauses excluded
	pauseMs []float64     // per checkpoint
	resume  time.Duration // median ReadCheckpointChain of the final chain
	heapMB  float64

	chain     bytes.Buffer // the current checkpoint chain
	chainRecs int
	ckptSum   hash.Hash // every checkpoint record written, in order

	trace    bytes.Buffer
	enc      *dynlocal.TraceStreamEncoder
	recorded []uint64 // hash of each recorded round's wake set and diff

	attempted, failed int
	digest            string // final outputs plus checker totals
}

// episodeResult is what one episode reports to the benchmark process.
type episodeResult struct {
	Rounds     int       `json:"rounds"`
	SetupS     float64   `json:"setup_s"`
	LoopS      float64   `json:"loop_s"`
	ResumeS    float64   `json:"resume_s"`
	HeapMB     float64   `json:"heap_mb"`
	RoundMs    []float64 `json:"round_ms"`
	PauseMs    []float64 `json:"pause_ms"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Digest     string    `json:"digest"`
	CkptSum    string    `json:"ckpt_sum"`
	CPUSamples int64     `json:"cpu_samples,omitempty"`
	Layers     []value   `json:"layers,omitempty"`
}

// playEpisode sets up, plays and verifies one episode. Traced, it also
// reports the per-layer metrics, and how much heap the run still holds
// once the episode has dropped every reference to it.
func playEpisode(s *spec, seed uint64, traced bool) (*episodeResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	before := heapMB(true)
	e, err := newEpisode(s, seed, tr)
	if err != nil {
		return nil, err
	}
	e.play()
	e.finish()
	res := &episodeResult{
		Rounds:    s.rounds,
		SetupS:    e.setup.Seconds(),
		LoopS:     e.loop.Seconds(),
		ResumeS:   e.resume.Seconds(),
		HeapMB:    e.heapMB,
		RoundMs:   e.roundMs,
		PauseMs:   e.pauseMs,
		Attempted: e.attempted,
		Failed:    e.failed,
		Digest:    e.digest,
		CkptSum:   hex.EncodeToString(e.ckptSum.Sum(nil))[:16],
	}
	// Drop the episode, so whatever heap remains below is held by the
	// runs themselves.
	e = nil
	if tr != nil {
		if tr.profErr != nil {
			return nil, tr.profErr
		}
		res.CPUSamples = tr.cpuSamples()
		res.Layers = append(tr.layers(), value{"engine.retained_mb_after_run", "MB", heapMB(true) - before})
	}
	return res, nil
}

// heapMB collects garbage and returns the heap in use. With finalize, it
// collects twice and lets queued finalizers run in between, so objects
// freed only after their finalizer are gone too.
func heapMB(finalize bool) float64 {
	runtime.GC()
	if finalize {
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// newEpisode times the set-up: graph generation and construction of
// adversary, algorithm, engine and checker.
func newEpisode(s *spec, seed uint64, tr *tracer) (*episode, error) {
	e := &episode{spec: s, seed: seed, tr: tr, ckptSum: sha256.New()}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		e.eng, e.check = s.newRun(seed, tr)
		setups = append(setups, time.Since(start).Seconds())
	}
	e.setup = time.Duration(quantile(setups, 0.5) * float64(time.Second))
	if s.record {
		var err error
		if e.enc, err = dynlocal.NewTraceStreamEncoder(&e.trace, s.n, s.rounds); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// play runs the timed round loop.
func (e *episode) play() {
	tr := e.tr
	tr.beginLoop()
	for r := 1; r <= e.spec.rounds; r++ {
		t0 := time.Now()
		info := e.eng.Step()
		t1 := tr.now()
		rep := e.check.Feed(info.Delta())
		t2 := tr.now()
		var werr error
		if e.enc != nil {
			werr = e.enc.WriteRound(info.Wake, info.EdgeAdds, info.EdgeRemoves)
		}
		d := time.Since(t0)
		e.loop += d
		e.roundMs = append(e.roundMs, ms(d))
		tr.round(t0, t1, t2, d, e.enc != nil, info, rep)

		e.attempted++
		if !rep.Valid() || werr != nil {
			e.failed++
		}
		if e.enc != nil {
			e.recorded = append(e.recorded, roundHash(info.Wake, info.EdgeAdds, info.EdgeRemoves))
		}
		if e.spec.ckptEvery > 0 && r%e.spec.ckptEvery == 0 && r < e.spec.rounds {
			d := e.checkpoint()
			e.loop += d
			tr.ckptInLoop(d)
		}
	}
	if e.enc != nil {
		t0 := time.Now()
		err := e.enc.Close()
		tr.encodeClose(time.Since(t0), e.trace.Len(), e.spec.rounds)
		e.attempted++
		if err != nil {
			e.failed++
		}
	}
	tr.endLoop(e.spec.rounds, e.loop)
}

// checkpoint takes the next chain checkpoint into memory, as dynsim
// does on disk minus the fsync, and returns its pause.
func (e *episode) checkpoint() time.Duration {
	base := e.chainRecs == 0 || (e.spec.fullEvery > 0 && e.chainRecs >= e.spec.fullEvery)
	mark := e.chain.Len()
	if base {
		e.chain.Reset()
		mark = 0
	}
	t0 := time.Now()
	var err error
	if base {
		err = dynlocal.WriteCheckpointChain(&e.chain, e.eng, e.check)
	} else {
		err = dynlocal.AppendCheckpointDelta(&e.chain, e.eng, e.check)
	}
	d := time.Since(t0)
	e.pauseMs = append(e.pauseMs, ms(d))
	e.attempted++
	if err != nil {
		e.failed++
		return d
	}
	if base {
		e.chainRecs = 1
	} else {
		e.chainRecs++
	}
	rec := e.chain.Bytes()[mark:]
	e.ckptSum.Write(rec)
	e.tr.ckpt(base, d, len(rec))
	return d
}

// finish measures the live heap, digests the run, then checks that the
// final chain restores into a fresh run that steps to the same outputs,
// and that the recorded trace decodes to the rounds that were played.
func (e *episode) finish() {
	e.heapMB = heapMB(false)
	e.digest = runDigest(e.eng, e.check)

	if e.spec.ckptEvery == 0 {
		e.checkpoint()
		for i := 1; i < endCheckpoints; i++ {
			stepTo(e.eng, e.check, e.eng.Round()+1)
			e.checkpoint()
		}
	}
	e.verifyResume(e.eng.Round() + extraRounds)
	if e.enc != nil {
		e.verifyTrace()
	}
}

// verifyResume restores the chain into freshly built runs, steps the
// last one and the uninterrupted run to round end, and counts one failed
// operation if a restore errs or the two runs differ.
func (e *episode) verifyResume(end int) {
	e.attempted++
	var eng *dynlocal.Engine
	var check *dynlocal.TDynamicChecker
	var times []float64
	for i := 0; i < restores; i++ {
		eng, check = e.spec.newRun(e.seed, e.tr)
		start := time.Now()
		err := dynlocal.ReadCheckpointChain(bytes.NewReader(e.chain.Bytes()), eng, check, nil)
		d := time.Since(start)
		if err != nil {
			e.failed++
			return
		}
		times = append(times, d.Seconds())
		e.tr.restore(d, e.chain.Len())
	}
	e.resume = time.Duration(quantile(times, 0.5) * float64(time.Second))
	stepTo(e.eng, e.check, end)
	stepTo(eng, check, end)
	if runDigest(eng, check) != runDigest(e.eng, e.check) {
		e.failed++
	}
}

func stepTo(eng *dynlocal.Engine, check *dynlocal.TDynamicChecker, end int) {
	for eng.Round() < end {
		check.Feed(eng.Step().Delta())
	}
}

// verifyTrace decodes the whole recorded trace and counts one failed
// operation if it errs or any round differs from the one recorded.
func (e *episode) verifyTrace() {
	e.attempted++
	if e.tr != nil {
		// A decode-only pass, so the decode rate excludes the hashing.
		t0 := time.Now()
		n, err := decodeAll(e.trace.Bytes())
		if err == nil && n == len(e.recorded) {
			e.tr.decode(time.Since(t0), e.trace.Len())
		}
	}
	if !traceMatches(e.trace.Bytes(), e.recorded) {
		e.failed++
	}
}

// decodeAll decodes every round of a trace and returns the round count.
func decodeAll(b []byte) (int, error) {
	dec, err := dynlocal.NewTraceStreamDecoder(bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, _, _, err := dec.NextDeltas(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

// traceMatches reports whether b decodes to exactly the recorded rounds.
func traceMatches(b []byte, recorded []uint64) bool {
	dec, err := dynlocal.NewTraceStreamDecoder(bytes.NewReader(b))
	if err != nil || dec.Rounds() != len(recorded) {
		return false
	}
	for _, want := range recorded {
		wake, adds, removes, err := dec.NextDeltas()
		if err != nil || roundHash(wake, adds, removes) != want {
			return false
		}
	}
	_, _, _, err = dec.NextDeltas()
	return err == io.EOF
}

// roundHash fingerprints one round's wake set and edge diff.
func roundHash(wake []dynlocal.NodeID, adds, removes []dynlocal.EdgeKey) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(wake)))
	for _, v := range wake {
		put(uint64(v))
	}
	for _, list := range [][]dynlocal.EdgeKey{adds, removes} {
		put(uint64(len(list)))
		for _, k := range list {
			put(uint64(k))
		}
	}
	return h.Sum64()
}

// runDigest fingerprints a run: its round, every node's output and the
// checker's totals.
func runDigest(eng *dynlocal.Engine, check *dynlocal.TDynamicChecker) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(eng.Round()))
	for _, v := range eng.Outputs() {
		put(int64(v))
	}
	rounds, invalid, packing, cover, botCore := check.Totals()
	for _, v := range []int{rounds, invalid, packing, cover, botCore} {
		put(int64(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
