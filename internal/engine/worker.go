package engine

import "repro/internal/sockets"

// The packet-processing core. Two shapes share the same per-event
// handlers (tcp.go, dns.go):
//
//   - Workers == 1: the paper's Figure-4 MainWorker — one thread, one
//     selector wait point covering socket events and the tunnel read
//     queue (§3.2). This is the fidelity-preserving default; the
//     ablation results are produced on this path.
//
//   - Workers > 1: N independent MainWorkers, shared-nothing. The
//     batched TunReader peeks each packet's flow key and scatters
//     bursts straight into the per-worker SPSC rings (reader.go);
//     socket readiness lands on the owning worker's own selector,
//     because the socket was registered there at connect time
//     (selectorFor). Each worker multiplexes exactly its own selector
//     and its own ring — no stage is shared between workers, so worker
//     scaling has no serial hot-path section left. All events of a
//     flow are drained by its one pinned worker, so per-flow packet
//     ordering is preserved while distinct flows proceed in parallel.

// worker is one pinned packet-processing thread with its private
// selector and packet ring.
type worker struct {
	id  int
	q   *ringQ
	sel *sockets.Selector
}

// runWorker is one shared-nothing worker: structurally the paper's
// MainWorker loop (one Select covering both event sources), but over
// the worker's private selector and private packet ring. The reader
// wakes the selector once per burst per touched worker; socket
// readiness wakes it from markReady directly. Like MainWorker it
// drains in interleaved batches so a packet flood cannot starve socket
// events. The worker exits only once the reader has closed the packet
// lane (its final act, after which no push can follow) and the ring is
// drained — exiting on the running flag alone could strand a reader
// blocked in a full-ring push with nobody left to make space.
func (e *Engine) runWorker(w *worker) {
	defer e.wg.Done()
	for {
		if w.q.closed.Load() && w.q.drained() {
			return
		}
		keys := w.sel.Select()
		for {
			progress := false
			for _, k := range keys {
				e.handleSocketKey(k)
				progress = true
			}
			keys = keys[:0]
			for i := 0; i < 64; i++ {
				raw, ok := w.q.popPacket()
				if !ok {
					break
				}
				e.handleTunnelPacket(raw)
				progress = true
			}
			if !progress {
				break
			}
			keys = w.sel.SelectTimeout(0)
		}
	}
}

// mainWorker is the single packet-processing thread (Figure 4): one
// selector wait point covers socket events and the tunnel read queue
// (§3.2), and the two event sources are checked in an interleaved loop.
func (e *Engine) mainWorker() {
	defer e.wg.Done()
	if e.cfg.MainLoopPoll > 0 {
		e.mainWorkerPolled()
		return
	}
	sel := e.sels[0]
	for e.isRunning() {
		keys := sel.Select()
		for {
			progress := false
			for _, k := range keys {
				e.handleSocketKey(k)
				progress = true
			}
			keys = keys[:0]
			// Interleave: after a batch of socket events, drain a batch
			// of tunnel packets, then re-poll without blocking.
			for i := 0; i < 64; i++ {
				raw, ok := e.readQ.pop()
				if !ok {
					break
				}
				e.handleTunnelPacket(raw)
				progress = true
			}
			if !progress {
				break
			}
			if !e.isRunning() {
				return
			}
			keys = sel.SelectTimeout(0)
		}
	}
}

// mainWorkerPolled is the poll-based main loop of the Haystack-style
// baseline: a fixed sleep, then a drain of both event sources. Events
// arriving just after a drain wait out the entire next sleep, which
// batches the relay in poll-interval cycles.
func (e *Engine) mainWorkerPolled() {
	sel := e.sels[0]
	for e.isRunning() {
		e.clk.Sleep(e.cfg.MainLoopPoll)
		e.meter.AddWakeups(1)
		for {
			progress := false
			for _, k := range sel.SelectTimeout(0) {
				e.handleSocketKey(k)
				progress = true
			}
			for {
				raw, ok := e.readQ.pop()
				if !ok {
					break
				}
				e.handleTunnelPacket(raw)
				progress = true
			}
			if !progress {
				break
			}
			if !e.isRunning() {
				return
			}
		}
	}
}
