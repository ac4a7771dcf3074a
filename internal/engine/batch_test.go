package engine_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
)

// Tests for the batched TUN read path: the per-flow ordering property
// across every batch/worker configuration, and the batch accounting
// counters.

// TestPerFlowOrderingAcrossConfigs is the ordering property test the
// batched read path is gated on: each flow writes a stream of
// sequence-numbered messages through the relay and verifies the echoes
// come back with the sequence numbers in order and intact. The phone
// stack delivers only in-order segments (out-of-order data is dropped
// as duplicate, like a kernel without reassembly for a lossless
// tunnel), so any reordering introduced by the scatter path, the rings,
// or the batched writer surfaces as a corrupted or stalled stream. The
// grid covers the paper-faithful core, the ring path with batching
// disabled, two burst sizes, the AIMD-governed adaptive burst, and a
// worker count that does not divide the flow-table shards evenly; a
// ring smaller than the in-flight
// packet count forces the reader's backpressure path too (including
// the adaptive governor's worst case, a burst larger than the ring).
func TestPerFlowOrderingAcrossConfigs(t *testing.T) {
	configs := []struct {
		name      string
		workers   int
		readBatch int
		ringSize  int
		auto      bool
	}{
		{name: "workers=1", workers: 1},
		{name: "workers=4/readbatch=1", workers: 4, readBatch: 1},
		{name: "workers=4/readbatch=8", workers: 4, readBatch: 8},
		{name: "workers=4/readbatch=64", workers: 4, readBatch: 64},
		{name: "workers=2/tiny-ring", workers: 2, readBatch: 64, ringSize: 8},
		{name: "workers=4/readbatch=auto", workers: 4, auto: true},
		{name: "workers=4/readbatch=auto/tiny-ring", workers: 4, ringSize: 8, auto: true},
		{name: "workers=3/readbatch=64", workers: 3, readBatch: 64},
		{name: "workers=2/readbatch=auto", workers: 2, auto: true},
	}
	const (
		flows   = 6
		msgs    = 25
		payload = 700 // < MSS: one tunnel packet per message
	)
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = tc.workers
			cfg.ReadBatch = tc.readBatch
			cfg.RingSize = tc.ringSize
			cfg.ReadBatchAuto = tc.auto
			tb := newTestbed(t, cfg)

			errs := make(chan error, flows)
			for f := 0; f < flows; f++ {
				go func(f int) {
					conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
					if err != nil {
						errs <- fmt.Errorf("flow %d connect: %w", f, err)
						return
					}
					defer conn.Close()
					msg := make([]byte, payload)
					buf := make([]byte, payload)
					for seq := 0; seq < msgs; seq++ {
						binary.BigEndian.PutUint32(msg[0:], uint32(f))
						binary.BigEndian.PutUint32(msg[4:], uint32(seq))
						for i := 8; i < len(msg); i++ {
							msg[i] = byte(f ^ seq ^ i)
						}
						if _, err := conn.Write(msg); err != nil {
							errs <- fmt.Errorf("flow %d seq %d write: %w", f, seq, err)
							return
						}
						if err := conn.ReadFull(buf); err != nil {
							errs <- fmt.Errorf("flow %d seq %d read: %w", f, seq, err)
							return
						}
						gotFlow := binary.BigEndian.Uint32(buf[0:])
						gotSeq := binary.BigEndian.Uint32(buf[4:])
						if gotFlow != uint32(f) || gotSeq != uint32(seq) {
							errs <- fmt.Errorf("flow %d expected seq %d, echoed (flow=%d seq=%d): per-flow order violated",
								f, seq, gotFlow, gotSeq)
							return
						}
						for i := 8; i < len(buf); i++ {
							if buf[i] != byte(f^seq^i) {
								errs <- fmt.Errorf("flow %d seq %d corrupted at byte %d", f, seq, i)
								return
							}
						}
					}
					errs <- nil
				}(f)
			}
			// A reordering often manifests as a stalled stream (the phone
			// drops the out-of-order segment and nothing retransmits), so
			// bound the wait instead of hanging the suite.
			deadline := time.After(30 * time.Second)
			for f := 0; f < flows; f++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("flows stalled (%d/%d finished): packets likely lost or reordered", f, flows)
				}
			}
		})
	}
}

// TestBatchCountersAccounted verifies the batch accounting: on the
// multi-worker path every tunnel packet flows through a burst read, so
// BatchedPackets covers PacketsFromTun (+ rejected peeks) and
// ReadBatches counts the bursts; on the paper-faithful single-worker
// path both counters stay zero.
func TestBatchCountersAccounted(t *testing.T) {
	run := func(workers int) engine.Stats {
		t.Helper()
		cfg := engine.Default()
		cfg.Workers = workers
		tb := newTestbed(t, cfg)
		conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := []byte("batch accounting probe")
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(msg))
		if err := conn.ReadFull(buf); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "record")
		return tb.eng.Stats()
	}

	single := run(1)
	if single.ReadBatches != 0 || single.BatchedPackets != 0 {
		t.Errorf("single-worker engine used the batched path: %d batches, %d packets",
			single.ReadBatches, single.BatchedPackets)
	}

	multi := run(4)
	if multi.ReadBatches == 0 {
		t.Error("multi-worker engine recorded no batched reads")
	}
	if multi.BatchedPackets < multi.PacketsFromTun {
		t.Errorf("BatchedPackets %d < PacketsFromTun %d: packets bypassed the batched reader",
			multi.BatchedPackets, multi.PacketsFromTun)
	}
	if multi.ReadBatches > multi.BatchedPackets {
		t.Errorf("more batches (%d) than batched packets (%d)", multi.ReadBatches, multi.BatchedPackets)
	}
}

// TestReadBatchStatsObservable pins the new burst observability: on the
// batched path Stats must expose the reader's live burst limit and the
// realised batch size, with the limit pinned at Config.ReadBatch in
// fixed mode and confined to [floor, ceiling] under ReadBatchAuto.
func TestReadBatchStatsObservable(t *testing.T) {
	run := func(auto bool) engine.Stats {
		t.Helper()
		cfg := engine.Default()
		cfg.Workers = 4
		cfg.ReadBatch = 32
		cfg.ReadBatchAuto = auto
		tb := newTestbed(t, cfg)
		conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := []byte("burst gauge probe")
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(msg))
		if err := conn.ReadFull(buf); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "record")
		return tb.eng.Stats()
	}

	fixed := run(false)
	if fixed.ReadBatchLimit != 32 {
		t.Errorf("fixed mode: ReadBatchLimit = %d, want the pinned 32", fixed.ReadBatchLimit)
	}
	if fixed.ReadBatches > 0 && fixed.AvgReadBatch <= 0 {
		t.Errorf("fixed mode: AvgReadBatch = %v with %d batches", fixed.AvgReadBatch, fixed.ReadBatches)
	}

	adaptive := run(true)
	if adaptive.ReadBatchLimit < 1 || adaptive.ReadBatchLimit > 32 {
		t.Errorf("adaptive mode: ReadBatchLimit = %d, want within [floor, 32]", adaptive.ReadBatchLimit)
	}
	if adaptive.ReadBatches > 0 && adaptive.AvgReadBatch <= 0 {
		t.Errorf("adaptive mode: AvgReadBatch = %v with %d batches", adaptive.AvgReadBatch, adaptive.ReadBatches)
	}
}
