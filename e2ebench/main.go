// Command e2ebench is the end-to-end benchmark of dynlocal: it runs the
// combined (Theorem 1.1) algorithms through the public API, verifies
// every round with the T-dynamic checker, checkpoints, restores and
// replays, and prints one JSON result line. See README.md in this
// directory for the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: coloring-churn | mis-p2p | mis-ckpt")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure; whole episodes run until it has passed")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	episode := flag.Bool("episode", false, "play one episode and print its raw result as JSON (the benchmark runs each episode in such a child process)")
	flag.Parse()
	s := lookup(*workload)
	if s == nil || flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	if err := mainErr(s, *seed, *seconds, *trace == 1, *episode); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr(s *spec, seed uint64, seconds float64, traced, episode bool) error {
	if episode {
		res, err := playEpisode(s, seed, traced)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	res, err := run(s, seed, time.Duration(seconds*float64(time.Second)), traced, childEpisode)
	if err != nil {
		return err
	}
	return res.write(os.Stdout)
}

// childEpisode plays one episode in a child process of this binary, so
// every episode starts from an empty heap. Engines that ran with more
// than one worker are never collected (see README.md), so episodes
// sharing a process would pile up dead runs and slow each other's GC.
func childEpisode(s *spec, seed uint64, traced bool) (*episodeResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--episode", "--workload", s.name,
		"--seed", strconv.FormatUint(seed, 10), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("episode process: %w", err)
	}
	var res episodeResult
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&res); err != nil {
		return nil, fmt.Errorf("episode process output: %w", err)
	}
	return &res, nil
}

// result is what one benchmark process reports: a few human-readable
// lines, then the JSON object of the benchmark contract.
type result struct {
	info              []string
	names             []string
	metrics           map[string]metric
	attempted, failed int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name, unit string, v float64) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{v, unit}
}

func (r *result) write(w io.Writer) error {
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	for _, n := range r.names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	frac := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d of %d operations)\n", "failed_ops_frac", frac, r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// episodeRunner plays one episode of a workload.
type episodeRunner func(s *spec, seed uint64, traced bool) (*episodeResult, error)

// phase is the episodes one timed phase of a run played.
type phase struct {
	eps               []*episodeResult
	attempted, failed int
}

// play runs whole episodes of s until budget has passed, at least one.
// Every episode replays the same seed, so a digest or checkpoint byte
// stream that differs from the first episode's is a failed operation.
func play(s *spec, seed uint64, budget time.Duration, traced bool, runEp episodeRunner) (*phase, error) {
	p := &phase{}
	start := time.Now()
	for len(p.eps) == 0 || time.Since(start) < budget {
		e, err := runEp(s, seed, traced)
		if err != nil {
			return nil, err
		}
		p.attempted += e.Attempted + 1
		p.failed += e.Failed
		if len(p.eps) > 0 && (e.Digest != p.eps[0].Digest || e.CkptSum != p.eps[0].CkptSum) {
			p.failed++
		}
		p.eps = append(p.eps, e)
	}
	return p, nil
}

// roundsPerSec is the median over the episodes of rounds ÷ loop time, so
// one episode disturbed by a noisy neighbour does not move it.
func (p *phase) roundsPerSec() float64 {
	xs := make([]float64, len(p.eps))
	for i, e := range p.eps {
		xs[i] = float64(e.Rounds) / e.LoopS
	}
	return quantile(xs, 0.5)
}

// run plays s for the given time and reports the end-to-end metrics, or
// with traced the per-layer metrics: half the time untraced, half traced,
// and the traced half must reproduce the untraced digest and checkpoint
// bytes.
func run(s *spec, seed uint64, budget time.Duration, traced bool, runEp episodeRunner) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	res.info = append(res.info, fmt.Sprintf("e2ebench workload=%s seed=%d trace=%t n=%d rounds/episode=%d workers=%d go=%s num_cpu=%d gomaxprocs=%d",
		s.name, seed, traced, s.n, s.rounds, runtime.NumCPU(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	if !traced {
		p, err := play(s, seed, budget, false, runEp)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = p.attempted, p.failed
		res.describe(p, "")
		endToEnd(res, p)
		return res, nil
	}
	plain, err := play(s, seed, budget/2, false, runEp)
	if err != nil {
		return nil, err
	}
	tp, err := play(s, seed, budget/2, true, runEp)
	if err != nil {
		return nil, err
	}
	res.attempted = plain.attempted + tp.attempted + 1
	res.failed = plain.failed + tp.failed
	if plain.eps[0].Digest != tp.eps[0].Digest || plain.eps[0].CkptSum != tp.eps[0].CkptSum {
		res.failed++
	}
	res.describe(plain, "untraced ")
	res.describe(tp, "traced ")
	perLayer(res, tp, 1-tp.roundsPerSec()/plain.roundsPerSec())
	return res, nil
}

func (r *result) describe(p *phase, label string) {
	var rounds, pauses int
	var samples int64
	var rps []string
	for _, e := range p.eps {
		rounds += len(e.RoundMs)
		pauses += len(e.PauseMs)
		samples += e.CPUSamples
		rps = append(rps, fmt.Sprintf("%.2f", float64(e.Rounds)/e.LoopS))
	}
	r.info = append(r.info, fmt.Sprintf("%sepisodes=%d round_samples=%d pause_samples=%d cpu_samples=%d digest=%s ckpt_sha=%s episode_rounds_per_s=%v",
		label, len(p.eps), rounds, pauses, samples, p.eps[0].Digest, p.eps[0].CkptSum, rps))
}

// endToEnd adds the user-visible metrics of an untraced phase. Round
// latency percentiles are taken per episode and the median reported:
// where GC cycles land among the rounds differs from episode to episode,
// and one unlucky episode would otherwise own a pooled tail. Pauses are
// pooled, as a workload without in-loop checkpoints has only a few per
// episode; one-per-episode numbers are medians.
func endToEnd(r *result, p *phase) {
	var p50, p95, pauseMs, resume, setup, heap []float64
	for _, e := range p.eps {
		p50 = append(p50, quantile(e.RoundMs, 0.50))
		p95 = append(p95, quantile(e.RoundMs, 0.95))
		pauseMs = append(pauseMs, e.PauseMs...)
		resume = append(resume, e.ResumeS)
		setup = append(setup, e.SetupS)
		heap = append(heap, e.HeapMB)
	}
	r.add("rounds_per_s", "rounds/s", p.roundsPerSec())
	r.add("round_ms_p50", "ms", quantile(p50, 0.5))
	r.add("round_ms_p95", "ms", quantile(p95, 0.5))
	r.add("ckpt_pause_ms_p50", "ms", quantile(pauseMs, 0.50))
	r.add("ckpt_pause_ms_p80", "ms", quantile(pauseMs, 0.80))
	r.add("resume_s", "s", quantile(resume, 0.5))
	r.add("setup_s", "s", quantile(setup, 0.5))
	r.add("live_heap_mb", "MB", quantile(heap, 0.5))
}

// perLayer adds the per-layer metrics of a traced phase, each the median
// over its episodes, and the tracing overhead.
func perLayer(r *result, p *phase, overhead float64) {
	for i, v := range p.eps[0].Layers {
		xs := make([]float64, len(p.eps))
		for k, e := range p.eps {
			xs[k] = e.Layers[i].Value
		}
		r.add(v.Name, v.Unit, quantile(xs, 0.5))
	}
	r.add("trace_overhead_frac", "ratio", overhead)
}
