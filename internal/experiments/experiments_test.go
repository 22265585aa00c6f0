package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the quick-mode result goldens under testdata/")

// checkGolden pins an experiment's quick-mode result: the canonical %+v
// rendering must match testdata/<name>.golden byte for byte, so a
// refactor that shifts any number — not just one the shape assertions
// look at — fails here. Run with -update to rewrite the fixture after a
// deliberate behaviour change.
func checkGolden(t *testing.T, name string, res any) {
	t.Helper()
	got := fmt.Sprintf("%+v\n", res)
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s quick result drifted from %s:\n got: %s\nwant: %s", name, path, got, want)
	}
}

// The experiment suite doubles as the paper's evaluation; these tests run
// every experiment in Quick mode and assert the paper-predicted shapes,
// so `go test` certifies the whole reproduction end to end.

func quick() Params { return Params{Quick: true, Seed: 12345} }

func TestE01DColorConvergenceShape(t *testing.T) {
	res := E01DColorConvergence(quick())
	checkGolden(t, "E01", res)
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range res.Points {
		if pt.Rounds.Max >= float64(4*pt.Window) {
			t.Fatalf("n=%d %s: convergence censored at %v (window %d)",
				pt.N, pt.Adversary, pt.Rounds.Max, pt.Window)
		}
		if pt.Rounds.Mean >= float64(pt.Window) {
			t.Fatalf("n=%d %s: mean rounds %v exceeds window %d",
				pt.N, pt.Adversary, pt.Rounds.Mean, pt.Window)
		}
	}
	// O(log n) shape: the log fit should describe the static series well
	// and the slope should be a small constant.
	if res.Fit.R2 < 0.5 {
		t.Fatalf("log fit R² = %v — convergence not log-shaped", res.Fit.R2)
	}
	if res.Fit.Slope > 6 {
		t.Fatalf("log fit slope %v too steep for O(log n)", res.Fit.Slope)
	}
}

func TestE02ConflictResolution(t *testing.T) {
	res := E02ConflictResolution(quick())
	checkGolden(t, "E02", res)
	if res.Injected == 0 {
		t.Fatal("no conflicts injected — experiment ineffective")
	}
	if res.StaleConflictRound != 0 {
		t.Fatalf("%d conflicts on intersection edges (must be 0)", res.StaleConflictRound)
	}
	if res.Unresolved != 0 {
		t.Fatalf("%d conflicts unresolved after T rounds", res.Unresolved)
	}
	if res.ResolutionRounds.Count > 0 && res.ResolutionRounds.Max > float64(res.Window) {
		t.Fatalf("max resolution %v exceeds window %d", res.ResolutionRounds.Max, res.Window)
	}
}

func TestE03LocalStability(t *testing.T) {
	results := E03LocalStability(quick())
	checkGolden(t, "E03", results)
	for _, res := range results {
		if res.ProtectedChanges != 0 {
			t.Fatalf("%s: %d protected-node changes after stabilization", res.Problem, res.ProtectedChanges)
		}
		if res.ProtectedBot != 0 {
			t.Fatalf("%s: %d protected nodes still ⊥", res.Problem, res.ProtectedBot)
		}
		if res.UnprotectedChanges == 0 {
			t.Fatalf("%s: churn did not move unprotected nodes — freeze too broad", res.Problem)
		}
	}
}

func TestE04ColoringProgress(t *testing.T) {
	results := E04ColoringProgress(quick())
	checkGolden(t, "E04", results)
	for _, res := range results {
		if res.SlowRounds == 0 {
			t.Fatalf("%s: no slow rounds observed", res.Algorithm)
		}
		if res.EmpiricalProb < res.Bound {
			t.Fatalf("%s: progress probability %.4f below Lemma 4.3 bound %.4f",
				res.Algorithm, res.EmpiricalProb, res.Bound)
		}
	}
}

func TestE05MISEdgeDecay(t *testing.T) {
	results := E05MISEdgeDecay(quick())
	checkGolden(t, "E05", results)
	for _, res := range results {
		if res.Samples < 4 {
			t.Fatalf("%s: too few decay samples (%d)", res.Adversary, res.Samples)
		}
		if res.MeanDecay > res.Bound {
			t.Fatalf("%s: mean decay %.3f above Lemma 5.2 bound %.3f",
				res.Adversary, res.MeanDecay, res.Bound)
		}
	}
}

func TestE06DMisConvergenceShape(t *testing.T) {
	res := E06DMisConvergence(quick())
	checkGolden(t, "E06", res)
	for _, pt := range res.Points {
		if pt.Rounds.Mean >= float64(pt.Window) {
			t.Fatalf("n=%d %s: mean rounds %v exceeds window %d",
				pt.N, pt.Adversary, pt.Rounds.Mean, pt.Window)
		}
	}
	// Luby's round count concentrates so hard that over the narrow quick
	// sweep the regression is mostly noise; assert the slope bound (the
	// growth per doubling of n must be a small constant — consistent with
	// O(log n), wildly inconsistent with any polynomial) and leave the
	// R² shape check to the full sweep in cmd/experiments.
	if res.Fit.Slope > 8 {
		t.Fatalf("log fit slope %v too steep for O(log n)", res.Fit.Slope)
	}
}

func TestE07SMisStaticBall(t *testing.T) {
	results := E07SMisStaticBall(quick())
	checkGolden(t, "E07", results)
	for _, res := range results {
		if res.UndecidedAtEnd != 0 {
			t.Fatalf("n=%d: %d protected nodes never decided", res.N, res.UndecidedAtEnd)
		}
		if res.ChangesAfter != 0 {
			t.Fatalf("n=%d: %d output changes in static 2-balls", res.N, res.ChangesAfter)
		}
	}
}

func TestE08ConcatEndToEnd(t *testing.T) {
	results := E08ConcatEndToEnd(quick())
	checkGolden(t, "E08", results)
	for _, res := range results {
		if res.InvalidRounds != 0 {
			t.Fatalf("%s/%s: %d invalid rounds (%d violations)",
				res.Problem, res.Adversary, res.InvalidRounds, res.Violations)
		}
	}
}

func TestE09BaselinesShape(t *testing.T) {
	results := E09Baselines(quick())
	checkGolden(t, "E09", results)
	byAlgo := map[string]map[int]BaselineResult{}
	for _, r := range results {
		if byAlgo[r.Algorithm] == nil {
			byAlgo[r.Algorithm] = map[int]BaselineResult{}
		}
		byAlgo[r.Algorithm][r.ChurnPerRound] = r
	}
	// Combined: always valid.
	for c, r := range byAlgo["combined"] {
		if r.InvalidFrac != 0 {
			t.Fatalf("combined invalid at churn %d: %v", c, r.InvalidFrac)
		}
	}
	// Greedy repair: valid when static, violating under high churn.
	if byAlgo["greedy-repair"][0].InvalidFrac > 0.05 {
		t.Fatalf("greedy-repair invalid on static graph: %v", byAlgo["greedy-repair"][0].InvalidFrac)
	}
	maxChurn := 0
	for c := range byAlgo["greedy-repair"] {
		if c > maxChurn {
			maxChurn = c
		}
	}
	if byAlgo["greedy-repair"][maxChurn].InvalidFrac == 0 {
		t.Fatal("greedy-repair never violated under max churn — E9 premise broken")
	}
	// Restart: valid but churning outputs on a static graph.
	if byAlgo["restart"][0].InvalidFrac != 0 {
		t.Fatalf("restart invalid: %v", byAlgo["restart"][0].InvalidFrac)
	}
	if byAlgo["restart"][0].OutputChurn <= byAlgo["combined"][0].OutputChurn {
		t.Fatalf("restart churn %v not above combined churn %v on static graph",
			byAlgo["restart"][0].OutputChurn, byAlgo["combined"][0].OutputChurn)
	}
}

func TestE10WindowSweepShape(t *testing.T) {
	results := E10WindowSweep(quick())
	checkGolden(t, "E10", results)
	var tooSmallInvalid, defaultInvalid, doubleInvalid float64
	for _, r := range results {
		if r.Window == 2 {
			tooSmallInvalid = r.InvalidFrac
		}
		if r.Window == r.DefaultWindow {
			defaultInvalid = r.InvalidFrac
		}
		if r.Window == 2*r.DefaultWindow {
			doubleInvalid = r.InvalidFrac
		}
	}
	if tooSmallInvalid == 0 {
		t.Fatal("T=2 produced no violations under storms — window lower bound not visible")
	}
	if defaultInvalid != 0 {
		t.Fatalf("default window invalid fraction %v", defaultInvalid)
	}
	if doubleInvalid != 0 {
		t.Fatalf("double window invalid fraction %v (larger T must stay valid)", doubleInvalid)
	}
}

func TestE11DeltaWindowsMonotone(t *testing.T) {
	results := E11DeltaWindows(quick())
	checkGolden(t, "E11", results)
	for i := 1; i < len(results); i++ {
		if results[i].MeanEdges > results[i-1].MeanEdges+1e-9 {
			t.Fatalf("edge count not monotone in δ: %v -> %v",
				results[i-1].MeanEdges, results[i].MeanEdges)
		}
	}
	last := results[len(results)-1]
	if last.Delta != 1.0 {
		t.Fatal("last delta should be 1.0")
	}
	if last.Conflicts != 0 {
		t.Fatalf("δ=1 (intersection) has %d conflicts — packing guarantee broken", last.Conflicts)
	}
}

func TestE12MessageBitsPolylog(t *testing.T) {
	results := E12MessageBits(quick())
	checkGolden(t, "E12", results)
	for _, res := range results {
		if res.BitsPerMsg <= 0 {
			t.Fatalf("%s n=%d: no bits accounted", res.Algorithm, res.N)
		}
		// Coloring messages are Θ(log n); MIS alpha messages are a
		// 64-bit constant plus kind. Everything must stay well below
		// log²n + 70 (a generous poly log envelope).
		if res.BitsPerMsg > res.Log2N*res.Log2N+70 {
			t.Fatalf("%s n=%d: %.1f bits/msg outside poly log envelope",
				res.Algorithm, res.N, res.BitsPerMsg)
		}
	}
}

func TestE13Clairvoyant(t *testing.T) {
	res := E13Clairvoyant(quick())
	checkGolden(t, "E13", res)
	if res.ObliviousDominated == 0 {
		t.Fatal("oblivious run dominated nobody")
	}
	if res.ClairvoyantDominated != 0 {
		t.Fatalf("clairvoyant run dominated %d nodes (want 0)", res.ClairvoyantDominated)
	}
	if res.ClairvoyantMISSize != res.N {
		t.Fatalf("clairvoyant M size %d, want degenerate %d", res.ClairvoyantMISSize, res.N)
	}
	if res.ObliviousMISSize >= res.N/2 {
		t.Fatalf("oblivious MIS size %d suspiciously large", res.ObliviousMISSize)
	}
	if res.EdgesBurned == 0 || res.BaseViolations == 0 {
		t.Fatal("adversary did not visibly attack")
	}
}

func TestE14AsyncWakeup(t *testing.T) {
	results := E14AsyncWakeup(quick())
	checkGolden(t, "E14", results)
	for _, res := range results {
		if res.InvalidRounds != 0 {
			t.Fatalf("%s: %d invalid rounds", res.Schedule, res.InvalidRounds)
		}
		if res.FinalCore != res.N {
			t.Fatalf("%s: final core %d, want %d", res.Schedule, res.FinalCore, res.N)
		}
	}
}

func TestE15EngineScalingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment in -short mode")
	}
	for _, res := range E15EngineScaling(Params{Quick: true, Seed: 1}) {
		if res.RoundsPerSec <= 0 {
			t.Fatalf("n=%d workers=%d: no throughput measured", res.N, res.Workers)
		}
	}
}
