package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// tiny returns the named workload shrunk to run in well under a second.
func tiny(t *testing.T, name string) *spec {
	t.Helper()
	s := lookup(name)
	if s == nil {
		t.Fatalf("no workload %q", name)
	}
	switch name {
	case "mis-p2p":
		s.n, s.rounds = 2048, 40
	default:
		s.n, s.rounds = 256, 18
	}
	return s
}

// contract reads the metric and workload names BENCHMARK.json declares.
func contract(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	return names(c.Workloads), names(c.EndToEnd), names(c.PerLayer)
}

func TestWorkloadsMatchContract(t *testing.T) {
	declared, _, _ := contract(t)
	var have []string
	for _, s := range workloads() {
		have = append(have, s.name)
	}
	slices.Sort(have)
	if !slices.Equal(have, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, declared)
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at tiny size,
// untraced and traced, and requires zero failed operations and exactly
// the metrics BENCHMARK.json declares for the mode.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	_, endToEnd, perLayer := contract(t)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			s := tiny(t, w.name)
			res, err := run(s, 7, time.Millisecond, traced, playEpisode)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", s.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed", s.name, traced, res.failed, res.attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for n := range res.metrics {
				got = append(got, n)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%t: metrics %v, want %v", s.name, traced, got, want)
			}
		}
	}
}

// playTiny plays one tiny mis-ckpt episode up to its verification.
func playTiny(t *testing.T) *episode {
	t.Helper()
	e, err := newEpisode(tiny(t, "mis-ckpt"), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.play()
	if e.failed != 0 || e.chain.Len() == 0 || e.trace.Len() == 0 {
		t.Fatalf("clean episode: %d failed, chain %d B, trace %d B", e.failed, e.chain.Len(), e.trace.Len())
	}
	return e
}

func TestCleanEpisodeVerifies(t *testing.T) {
	e := playTiny(t)
	e.finish()
	if e.failed != 0 {
		t.Fatalf("%d of %d operations failed", e.failed, e.attempted)
	}
}

func TestFlippedChainByteIsAFailedOperation(t *testing.T) {
	e := playTiny(t)
	b := e.chain.Bytes()
	b[len(b)/2] ^= 0x40
	e.finish()
	if e.failed != 1 {
		t.Fatalf("flipped chain byte: %d failed operations, want 1", e.failed)
	}
}

func TestTruncatedTraceIsAFailedOperation(t *testing.T) {
	e := playTiny(t)
	e.trace.Truncate(e.trace.Len() / 2)
	e.finish()
	if e.failed != 1 {
		t.Fatalf("truncated trace: %d failed operations, want 1", e.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.8, 3.4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestClassify(t *testing.T) {
	step := "dynlocal/internal/engine.(*Engine).Step"
	worker := "dynlocal/internal/engine.(*phasePool).worker"
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"dynlocal/internal/core.(*concatProc).demux", step}, "core"},
		{[]string{"runtime.memhash32", "internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast32", "dynlocal/internal/core.(*concatProc).demux", worker}, layerMap},
		{[]string{"dynlocal/internal/algos/coloring.(*dcolorNode).Process", worker}, "algos"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "dynlocal/internal/core.f", step}, layerGC},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.futex", step}, "engine"},
		{[]string{"dynlocal/internal/dyngraph.(*Window).f", step}, "dyngraph"},
		{[]string{"dynlocal/internal/verify.(*TDynamic).Feed", "main.main"}, ""},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
