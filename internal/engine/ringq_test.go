package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Unit and property tests for the per-worker SPSC ring queue: FIFO
// order under concurrency (the invariant per-flow ordering rests on),
// producer backpressure when the ring is full, close semantics, and
// the allocation-free steady state.

// testRing is a ring with the consumer side a worker gives it: wake
// signals a one-slot channel (sticky, like a selector's Wakeup), and
// take parks on that channel while the ring is empty.
type testRing struct {
	*ringQ
	woke  chan struct{}
	wakes atomic.Int64
}

func newTestRing(size int) *testRing {
	r := &testRing{woke: make(chan struct{}, 1)}
	r.ringQ = newRingQ(size, func() {
		r.wakes.Add(1)
		select {
		case r.woke <- struct{}{}:
		default:
		}
	})
	return r
}

// take pops the next packet, parking until woken while the ring is
// empty; ok is false once the ring is closed and drained — the
// worker's exit test.
func (r *testRing) take() ([]byte, bool) {
	for {
		if raw, ok := r.popPacket(); ok {
			return raw, true
		}
		if r.closed.Load() && r.drained() {
			return nil, false
		}
		<-r.woke
	}
}

func TestRingQRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, defaultRingSize}, {-1, defaultRingSize}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024},
	} {
		if got := newRingQ(tc.in, func() {}).capacity(); got != tc.want {
			t.Errorf("newRingQ(%d) capacity = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRingQFIFOAcrossWrap pushes far more packets than the capacity
// through a concurrent producer/consumer pair and asserts strict FIFO —
// the wraparound indices must never skip or duplicate a slot. The
// producer wakes the consumer once per 7-packet burst, as the reader
// does, so the ring's own full-ring wake-ups carry the rest.
func TestRingQFIFOAcrossWrap(t *testing.T) {
	q := newTestRing(16)
	const n = 5000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			raw, ok := q.take()
			if !ok {
				done <- errf("queue closed at %d", i)
				return
			}
			if got := binary.BigEndian.Uint32(raw); got != uint32(i) {
				done <- errf("pop %d returned %d: FIFO violated", i, got)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		raw := make([]byte, 4)
		binary.BigEndian.PutUint32(raw, uint32(i))
		q.pushPacket(raw)
		if i%7 == 6 {
			q.wake()
		}
	}
	q.close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer stalled")
	}
}

// TestRingQPerFlowOrderAcrossRings mimics the reader's scatter: one
// producer distributes sequence-numbered packets of many flows across
// several rings by flow hash (every packet of a flow lands in the same
// ring), and each ring's consumer asserts per-flow sequence numbers
// arrive strictly in order.
func TestRingQPerFlowOrderAcrossRings(t *testing.T) {
	const (
		rings = 4
		flows = 32
		perFl = 400
	)
	qs := make([]*testRing, rings)
	for i := range qs {
		qs[i] = newTestRing(64) // small: exercises full-ring backpressure
	}
	var wg sync.WaitGroup
	errs := make(chan error, rings)
	for _, q := range qs {
		wg.Add(1)
		go func(q *testRing) {
			defer wg.Done()
			last := make(map[uint32]uint32)
			for {
				raw, ok := q.take()
				if !ok {
					errs <- nil
					return
				}
				flow := binary.BigEndian.Uint32(raw[0:])
				seq := binary.BigEndian.Uint32(raw[4:])
				if prev, seen := last[flow]; seen && seq != prev+1 {
					errs <- errf("flow %d: seq %d after %d", flow, seq, prev)
					return
				}
				last[flow] = seq
			}
		}(q)
	}
	// Interleave flows the way a real tunnel does: round-robin over
	// flows, sequence numbers per flow, one wake per ring per round
	// (the reader's per-burst wake).
	for seq := uint32(0); seq < perFl; seq++ {
		for flow := uint32(0); flow < flows; flow++ {
			raw := make([]byte, 8)
			binary.BigEndian.PutUint32(raw[0:], flow)
			binary.BigEndian.PutUint32(raw[4:], seq)
			qs[flow%rings].pushPacket(raw)
		}
		for _, q := range qs {
			q.wake()
		}
	}
	for _, q := range qs {
		q.close()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRingQFullBlocksProducerUntilDrain verifies bounded-queue
// backpressure: a push beyond capacity wakes the consumer, then parks
// the producer until the consumer pops.
func TestRingQFullBlocksProducerUntilDrain(t *testing.T) {
	q := newTestRing(4)
	for i := 0; i < 4; i++ {
		q.pushPacket([]byte{byte(i)})
	}
	pushed := make(chan struct{})
	go func() {
		q.pushPacket([]byte{99})
		close(pushed)
	}()
	select {
	case <-pushed:
		t.Fatal("push into a full ring returned without a pop")
	case <-time.After(20 * time.Millisecond):
	}
	if q.wakes.Load() == 0 {
		t.Fatal("producer parked on a full ring without waking the consumer")
	}
	if raw, ok := q.popPacket(); !ok || raw[0] != 0 {
		t.Fatalf("pop = %v, %v", raw, ok)
	}
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("producer not released by the pop")
	}
}

// TestRingQCloseReleasesConsumer parks a consumer on an empty queue and
// closes it: the close must wake the consumer, and take return
// ok=false.
func TestRingQCloseReleasesConsumer(t *testing.T) {
	q := newTestRing(8)
	got := make(chan bool, 1)
	go func() {
		_, ok := q.take()
		got <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("take returned an item from an empty closed queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not release the parked consumer")
	}
}

// TestRingQDrainsBacklogAfterClose ensures close-then-drain semantics:
// packets pushed before close are all delivered, in order, before take
// reports closed.
func TestRingQDrainsBacklogAfterClose(t *testing.T) {
	q := newTestRing(8)
	for i := 0; i < 5; i++ {
		q.pushPacket([]byte{byte(i)})
	}
	q.close()
	var got []byte
	for {
		raw, ok := q.take()
		if !ok {
			break
		}
		got = append(got, raw[0])
	}
	if string(got) != "\x00\x01\x02\x03\x04" {
		t.Fatalf("drained %v; want packets 0..4", got)
	}
}

// TestRingQSteadyStateAllocFree pins the allocation-free claim: a
// push/pop pair on a non-contended ring performs zero allocations.
func TestRingQSteadyStateAllocFree(t *testing.T) {
	q := newRingQ(64, func() {})
	raw := []byte{1, 2, 3}
	allocs := testing.AllocsPerRun(1000, func() {
		q.pushPacket(raw)
		if _, ok := q.popPacket(); !ok {
			t.Fatal("pop missed")
		}
	})
	if allocs != 0 {
		t.Errorf("push/pop allocates %.1f per op, want 0", allocs)
	}
}

// errf keeps the test goroutines terse.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
