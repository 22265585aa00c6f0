package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// poolWorkers counts the live worker goroutines of the phase pool at
// address pool (goroutine traces print the receiver pointer).
func poolWorkers(pool string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "engine.(*phasePool).worker("+pool+",")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestAbandonedEngineStopsWorkers steps a multi-worker engine (so its
// phase pool starts), drops it, and requires the garbage collector to
// reclaim it and its finalizer to stop the pool's worker goroutines. The
// Engine sits on reference cycles (RoundInfo headers point back at it),
// so this only works because the shutdown finalizer hangs on a guard
// object outside those cycles.
func TestAbandonedEngineStopsWorkers(t *testing.T) {
	const n = serialThreshold * 2
	var pool string
	func() {
		e := New(Config{N: n, Seed: 1, Workers: 2}, churnAdv(n)(), floodAlgo{})
		for r := 0; r < 3; r++ {
			e.Step()
		}
		pool = fmt.Sprintf("%p", e.pool)
		if got := poolWorkers(pool); got != 2 {
			t.Fatalf("pool workers while running: %d, want 2", got)
		}
		runtime.KeepAlive(e) // e is dead after its last use otherwise
	}()
	deadline := time.Now().Add(10 * time.Second)
	for poolWorkers(pool) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned engine still has %d pool workers after GC", poolWorkers(pool))
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// orderAlgo checks the NodeProc.Process inbox contract: sub-messages
// grouped by sender, senders strictly ascending, each sender's batch in
// its Broadcast order. Nodes send a varying number of sub-messages so
// runs of different lengths interleave.
type orderAlgo struct{}

func (orderAlgo) Name() string                    { return "inbox-order" }
func (orderAlgo) NewNode(v graph.NodeID) NodeProc { return &orderNode{v: v} }

type orderNode struct {
	v   graph.NodeID
	bad string
}

func (o *orderNode) Start(*Ctx, problems.Value) {}

func (o *orderNode) Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg {
	for i := 0; i <= (int(o.v)+ctx.Round)%3; i++ {
		buf = append(buf, SubMsg{Kind: 1, A: int64(i)})
	}
	return buf
}

func (o *orderNode) Process(_ *Ctx, in []Incoming, _ int) {
	for i := 1; i < len(in); i++ {
		prev, cur := in[i-1], in[i]
		switch {
		case cur.From < prev.From:
			o.bad = "senders not ascending"
		case cur.From == prev.From && cur.M.A != prev.M.A+1:
			o.bad = "sender batch out of order"
		case cur.From != prev.From && cur.M.A != 0:
			o.bad = "sender batch not contiguous"
		}
	}
}

func (o *orderNode) Output() problems.Value {
	if o.bad != "" {
		return 1
	}
	return problems.Bot
}

// TestInboxGroupedBySenderAscending pins the inbox order NodeProc.Process
// documents, under churn, on the serial and sharded paths.
func TestInboxGroupedBySenderAscending(t *testing.T) {
	for _, n := range []int{64, serialThreshold * 2} {
		for _, w := range []int{1, 2} {
			e := New(Config{N: n, Seed: 3, Workers: w}, churnAdv(n)(), orderAlgo{})
			for r := 0; r < 8; r++ {
				e.Step()
			}
			for v, st := range e.states {
				if bad := st.(*orderNode).bad; bad != "" {
					t.Fatalf("n=%d workers=%d node %d: %s", n, w, v, bad)
				}
			}
		}
	}
}
