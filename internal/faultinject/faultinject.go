// Package faultinject is the crash harness pinning the checkpoint/resume
// plane: it kills simulated runs at arbitrary round barriers (and mid-
// checkpoint, via failing writers), restores fresh processes from the
// surviving bytes and proves the resumed run is bit-identical to an
// uninterrupted one — outputs, accounting, RoundInfo deltas and
// T-dynamic verdicts, across adversaries, algorithms and worker counts.
// Both checkpoint formats are covered: standalone full snapshots
// (VerifyResume) and every prefix of the incremental base+delta chain
// (VerifyResumeChain).
//
// The package is a library of error-returning drivers so the same
// scenarios run under `go test -race` locally and as the crash-resume
// equivalence job in CI; the tests in this package supply the matrix.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

// ErrInjected is the failure a FaultWriter injects once its byte budget
// is exhausted, standing in for ENOSPC or a power cut mid-write.
var ErrInjected = errors.New("faultinject: injected write failure")

// FaultWriter passes through to W until Limit bytes have been written,
// then fails every subsequent write. The write crossing the limit is a
// short write: the prefix up to the limit reaches W — exactly the torn
// state a crash leaves on disk.
type FaultWriter struct {
	W     io.Writer
	Limit int
	n     int
}

// Written returns how many bytes reached the underlying writer.
func (f *FaultWriter) Written() int { return f.n }

func (f *FaultWriter) Write(p []byte) (int, error) {
	if f.n >= f.Limit {
		return 0, ErrInjected
	}
	if f.n+len(p) > f.Limit {
		k, err := f.W.Write(p[:f.Limit-f.n])
		f.n += k
		if err != nil {
			return k, err
		}
		return k, ErrInjected
	}
	k, err := f.W.Write(p)
	f.n += k
	return k, err
}

// Scenario describes one crash-resume equivalence experiment: a full run
// of Rounds rounds, checkpointed at every round in Crashpoints, each
// checkpoint then resumed in a fresh process image and replayed to the
// end under possibly different worker counts.
type Scenario struct {
	Name   string
	N      int
	Rounds int
	Seed   uint64
	// Workers is the reference run's parallelism.
	Workers int
	// NewAlgo builds a fresh algorithm instance (reference and every
	// resume get their own — a real restart constructs from scratch).
	NewAlgo func(n int) *core.Concat
	// Problem is the packing/covering decomposition the checker verifies.
	Problem problems.PC
	// NewAdv builds a fresh configured adversary; mutable state is
	// carried by the checkpoint, not the constructor.
	NewAdv func() adversary.Adversary
	// Crashpoints are the rounds to checkpoint at (0 < k < Rounds).
	Crashpoints []int
	// Input is the optional per-node input vector.
	Input []problems.Value
}

func (s Scenario) config(workers int) engine.Config {
	return engine.Config{N: s.N, Seed: s.Seed, Workers: workers, Input: s.Input}
}

// Record is one round of observable behavior: the retained RoundInfo
// (outputs, wake, output/topology deltas, message/bit accounting) and
// the checker's verdict for the round.
type Record struct {
	Info   *engine.RoundInfo
	Report verify.TDynamicReport
}

// Reference is an uninterrupted run's full observable history plus the
// checkpoint bytes taken at each crashpoint — both as standalone full
// snapshots and as the growing incremental chain.
type Reference struct {
	Records     []Record // Records[r-1] describes round r
	Checkpoints map[int][]byte
	// ChainPrefixes[k] holds the incremental chain bytes — magic, full
	// base record, then one delta per earlier crashpoint — up to and
	// including the record taken at round k: exactly the file a crash
	// right after that record's fsync leaves behind.
	ChainPrefixes map[int][]byte
	Totals        [5]int64
}

func copyReport(r verify.TDynamicReport) verify.TDynamicReport {
	r.PackingViolations = slices.Clone(r.PackingViolations)
	r.CoverViolations = slices.Clone(r.CoverViolations)
	return r
}

func totals(c *verify.TDynamic) [5]int64 {
	rounds, invalid, packing, cover, bot := c.Totals()
	return [5]int64{int64(rounds), int64(invalid), int64(packing), int64(cover), int64(bot)}
}

// snapshot writes the composed engine+checker checkpoint stream — the
// same layout cmd/dynsim records — and returns its bytes.
func snapshot(e *engine.Engine, chk *verify.TDynamic) ([]byte, error) {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	e.CheckpointTo(w)
	chk.SaveState(w)
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restore reads a composed engine+checker stream back into a fresh pair.
func restore(ck []byte, e *engine.Engine, chk *verify.TDynamic) error {
	r := ckpt.NewReader(bytes.NewReader(ck))
	e.RestoreFrom(r)
	chk.LoadState(r)
	if err := r.Err(); err != nil {
		return err
	}
	return r.Close()
}

// chainRecord composes one chain record — the full base when base is
// set, else a delta against the previous record — appends it to the
// chain, and notes it on both the engine and the checker so the next
// delta diffs against it.
func chainRecord(chain *bytes.Buffer, e *engine.Engine, chk *verify.TDynamic, base bool) error {
	var rec bytes.Buffer
	w := ckpt.NewWriter(&rec)
	if base {
		e.CheckpointTo(w)
		chk.SaveState(w)
	} else {
		e.CheckpointDeltaTo(w)
		chk.SaveDelta(w)
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := ckpt.AppendChainRecord(chain, rec.Bytes()); err != nil {
		return err
	}
	if base {
		e.NoteCheckpointBase(w.Sum32())
	} else {
		e.NoteCheckpoint(w.Sum32())
	}
	chk.NoteCheckpoint()
	return nil
}

// restoreChain applies a chain prefix into a fresh engine+checker pair —
// the internal-layer mirror of the facade's ReadCheckpointChain.
func restoreChain(prefix []byte, e *engine.Engine, chk *verify.TDynamic) error {
	cr := ckpt.NewChainReader(bytes.NewReader(prefix))
	first := true
	for {
		rec, err := cr.Next()
		if err == io.EOF {
			if first {
				return errors.New("empty chain")
			}
			return chk.FinishChain()
		}
		if err != nil {
			return err
		}
		rr := ckpt.NewReader(bytes.NewReader(rec))
		if first {
			e.RestoreFrom(rr)
			chk.LoadState(rr)
		} else {
			e.RestoreDeltaFrom(rr)
			chk.LoadDelta(rr)
		}
		if err := rr.Err(); err != nil {
			return err
		}
		if err := rr.Close(); err != nil {
			return err
		}
		if first {
			e.NoteCheckpointBase(rr.Sum32())
		} else {
			e.NoteCheckpoint(rr.Sum32())
		}
		chk.NoteCheckpoint()
		first = false
	}
}

// RunReference plays the uninterrupted run, recording every round and
// checkpointing at each crashpoint — a standalone full snapshot plus one
// record of the incremental chain (the base at the first crashpoint,
// deltas after), so every chain position has its crash-surviving prefix.
func RunReference(s Scenario) (*Reference, error) {
	algo := s.NewAlgo(s.N)
	e := engine.New(s.config(s.Workers), s.NewAdv(), algo)
	chk := verify.NewTDynamic(s.Problem, algo.T1, s.N)
	ref := &Reference{Checkpoints: make(map[int][]byte), ChainPrefixes: make(map[int][]byte)}
	e.OnRound(func(info *engine.RoundInfo) {
		rep := copyReport(chk.Feed(info.Delta()))
		ref.Records = append(ref.Records, Record{Info: info.Retain(), Report: rep})
	})
	var chain bytes.Buffer
	for r := 1; r <= s.Rounds; r++ {
		e.Step()
		if slices.Contains(s.Crashpoints, r) {
			ck, err := snapshot(e, chk)
			if err != nil {
				return nil, fmt.Errorf("checkpoint at round %d: %w", r, err)
			}
			ref.Checkpoints[r] = ck
			base := len(ref.ChainPrefixes) == 0
			if base {
				if err := ckpt.WriteChainMagic(&chain); err != nil {
					return nil, err
				}
			}
			if err := chainRecord(&chain, e, chk, base); err != nil {
				return nil, fmt.Errorf("chain record at round %d: %w", r, err)
			}
			ref.ChainPrefixes[r] = slices.Clone(chain.Bytes())
		}
	}
	ref.Totals = totals(chk)
	return ref, nil
}

// VerifyResume simulates the crash at round k: a fresh engine, checker
// and adversary are restored from the checkpoint the dying run left
// behind, replayed to the end under the given worker count, and every
// observable of every remaining round is compared bit-identically
// against the uninterrupted reference.
func VerifyResume(s Scenario, ref *Reference, k, workers int) error {
	ck, ok := ref.Checkpoints[k]
	if !ok {
		return fmt.Errorf("no checkpoint at round %d", k)
	}
	algo := s.NewAlgo(s.N)
	e := engine.New(s.config(workers), s.NewAdv(), algo)
	chk := verify.NewTDynamic(s.Problem, algo.T1, s.N)
	if err := restore(ck, e, chk); err != nil {
		return fmt.Errorf("restore at round %d: %w", k, err)
	}
	return replayCompare(s, ref, e, chk, k)
}

// VerifyResumeChain simulates the crash that leaves only the incremental
// chain prefix ending at round k on disk: a fresh engine, checker and
// adversary replay the whole prefix — the base plus every delta up to k
// — through the chain reader, then play to the end under the given
// worker count, compared bit-identically against the reference.
func VerifyResumeChain(s Scenario, ref *Reference, k, workers int) error {
	prefix, ok := ref.ChainPrefixes[k]
	if !ok {
		return fmt.Errorf("no chain record at round %d", k)
	}
	algo := s.NewAlgo(s.N)
	e := engine.New(s.config(workers), s.NewAdv(), algo)
	chk := verify.NewTDynamic(s.Problem, algo.T1, s.N)
	if err := restoreChain(prefix, e, chk); err != nil {
		return fmt.Errorf("chain restore at round %d: %w", k, err)
	}
	return replayCompare(s, ref, e, chk, k)
}

// replayCompare plays a restored run to the end, comparing every
// remaining round's observables and the final checker totals against the
// uninterrupted reference.
func replayCompare(s Scenario, ref *Reference, e *engine.Engine, chk *verify.TDynamic, k int) error {
	if e.Round() != k {
		return fmt.Errorf("restored engine at round %d, want %d", e.Round(), k)
	}
	var fail error
	e.OnRound(func(info *engine.RoundInfo) {
		if fail != nil {
			return
		}
		rep := copyReport(chk.Feed(info.Delta()))
		want := ref.Records[info.Round-1]
		if err := compareRound(want, Record{Info: info, Report: rep}); err != nil {
			fail = fmt.Errorf("resume at %d, round %d: %w", k, info.Round, err)
		}
	})
	for e.Round() < s.Rounds {
		e.Step()
		if fail != nil {
			return fail
		}
	}
	if got := totals(chk); got != ref.Totals {
		return fmt.Errorf("resume at %d: checker totals %v, want %v", k, got, ref.Totals)
	}
	return nil
}

// compareRound checks every observable of a round: the full delta plane,
// the accounting and the T-dynamic verdict.
func compareRound(want, got Record) error {
	wi, gi := want.Info, got.Info
	switch {
	case !slices.Equal(wi.Wake, gi.Wake):
		return fmt.Errorf("wake sets diverge: %v vs %v", wi.Wake, gi.Wake)
	case !slices.Equal(wi.Outputs, gi.Outputs):
		return errors.New("output snapshots diverge")
	case !slices.Equal(wi.Changed, gi.Changed):
		return fmt.Errorf("changed sets diverge: %v vs %v", wi.Changed, gi.Changed)
	case !slices.Equal(wi.EdgeAdds, gi.EdgeAdds):
		return errors.New("edge adds diverge")
	case !slices.Equal(wi.EdgeRemoves, gi.EdgeRemoves):
		return errors.New("edge removes diverge")
	case wi.Messages != gi.Messages:
		return fmt.Errorf("message accounting diverges: %d vs %d", wi.Messages, gi.Messages)
	case wi.Bits != gi.Bits:
		return fmt.Errorf("bit accounting diverges: %d vs %d", wi.Bits, gi.Bits)
	case !reflect.DeepEqual(want.Report, got.Report):
		return fmt.Errorf("T-dynamic verdicts diverge:\nwant %+v\ngot  %+v", want.Report, got.Report)
	}
	return nil
}
