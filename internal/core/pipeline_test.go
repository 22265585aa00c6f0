package core

import (
	"bytes"
	"testing"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
)

// TestSlotRingKeepsNewestWindow pins the fixed pipeline ring: after any
// number of pushes it holds the newest size instances, oldest first, and
// never reallocates its backing array.
func TestSlotRingKeepsNewestWindow(t *testing.T) {
	const size = 5
	var r slotRing
	r.push(dSlot{ch: 1}, size)
	buf := &r.buf[0]
	for ch := int32(2); ch <= 23; ch++ {
		r.push(dSlot{ch: ch}, size)
		want := min(int(ch), size)
		if r.n != want {
			t.Fatalf("after channel %d: %d live slots, want %d", ch, r.n, want)
		}
		for i := 0; i < r.n; i++ {
			if got := r.at(i).ch; got != ch-int32(r.n-1-i) {
				t.Fatalf("after channel %d: slot %d holds channel %d", ch, i, got)
			}
		}
		if &r.buf[0] != buf {
			t.Fatal("ring reallocated its backing array")
		}
	}
}

// TestChanIndexMatchesScan checks the offset channel lookup against a
// scan of the ring on both strides the combiners use, and that a ring
// with a gap in its channels is refused.
func TestChanIndexMatchesScan(t *testing.T) {
	for shift := uint(0); shift < 2; shift++ {
		stride := int32(1) << shift
		for _, chans := range [][]int32{
			{4, 4 + stride, 4 + 2*stride, 4 + 3*stride},
			{7},
			{},
		} {
			var r slotRing
			for _, ch := range chans {
				r.push(dSlot{ch: ch}, 4)
			}
			idx := r.index(shift)
			for ch := int32(-2); ch < 20; ch++ {
				want := int32(-1)
				for i := 0; i < r.n; i++ {
					if r.at(i).ch == ch {
						want = int32(i)
					}
				}
				if got := idx.slot(ch); got != want {
					t.Fatalf("stride %d ring %v: channel %d -> slot %d, want %d", stride, chans, ch, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("index of a ring with a channel gap did not panic")
		}
	}()
	var r slotRing
	for _, ch := range []int32{4, 5, 7} {
		r.push(dSlot{ch: ch}, 4)
	}
	r.index(0)
}

// TestDemuxGroupsStably checks the counting-sort split: every bucket gets
// its messages in inbox order, dropped messages vanish.
func TestDemuxGroupsStably(t *testing.T) {
	var in []engine.Incoming
	var assign []int32
	for i := 0; i < 40; i++ {
		in = append(in, engine.Incoming{From: graph.NodeID(i), M: engine.SubMsg{A: int64(i)}})
		assign = append(assign, int32(i%4)-1) // bucket -1 (drop), 0, 1, 2
	}
	d := getDemux(len(in), 3)
	defer d.release()
	for i, b := range assign {
		d.slot[i] = b
		if b >= 0 {
			d.off[b+1]++
		}
	}
	d.split(in)
	for b := 0; b < 3; b++ {
		var want []engine.Incoming
		for i, a := range assign {
			if a == int32(b) {
				want = append(want, in[i])
			}
		}
		got := d.bucket(b)
		if len(got) != len(want) {
			t.Fatalf("bucket %d: %d messages, want %d", b, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bucket %d message %d: %v, want %v", b, i, got[i], want[i])
			}
		}
	}
}

// ckInst is a checkpointable instance with no state of its own.
type ckInst struct{ probeStaticInst }

func (ckInst) SaveState(w *ckpt.Writer) { w.Section(0x7e) }
func (ckInst) LoadState(r *ckpt.Reader) { r.Section(0x7e) }

type ckFactory struct{}

func (ckFactory) NewNode(v graph.NodeID) NodeInstance { return &ckInst{} }

// TestLoadSlotsRejectsDisorderedChannels pins the restore-side check the
// demux index relies on: pipeline channels must step by exactly one
// stride from slot to slot.
func TestLoadSlotsRejectsDisorderedChannels(t *testing.T) {
	write := func(chans ...int32) []byte {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		ring := slotRing{}
		for _, ch := range chans {
			ring.push(dSlot{ch: ch, inst: &ckInst{}}, 8)
		}
		saveSlots(w, &ring)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	load := func(b []byte, stride int32) error {
		r := ckpt.NewReader(bytes.NewReader(b))
		loadSlots(r, 8, stride, ckFactory{}, 0)
		if err := r.Err(); err != nil {
			return err
		}
		return r.Close()
	}
	for _, tc := range []struct {
		stride int32
		chans  []int32
		ok     bool
	}{
		{1, []int32{3, 4, 5}, true},
		{2, []int32{6, 8, 10}, true},
		{1, []int32{3, 5, 6}, false},
		{2, []int32{6, 10}, false},
		{1, []int32{3, 5, 4}, false},
		{1, []int32{3, 3}, false},
		{2, []int32{6, 7}, false},
	} {
		if err := load(write(tc.chans...), tc.stride); (err == nil) != tc.ok {
			t.Errorf("stride %d channels %v: err = %v, want ok=%v", tc.stride, tc.chans, err, tc.ok)
		}
	}
}
