package engine

// Engine lifecycle: thread startup and teardown.

// Start launches the engine threads: TunReader, the packet-processing
// core (one MainWorker, or N pinned workers when Config.Workers > 1),
// and (for queueWrite schemes) TunWriter. It also performs the
// one-time addDisallowedApplication when configured (§3.5.2: "the call
// is best invoked during the initialization of MopEye").
func (e *Engine) Start() {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return
	}
	e.running = true
	e.started = e.clk.Now()
	e.mu.Unlock()

	if e.cfg.Protect == ProtectDisallowed {
		e.prov.AddDisallowedApplication()
	}
	e.dev.SetBlocking(e.cfg.ReadMode == ReadBlocking)

	e.udp.start()
	// The Haystack-style polled main loop is inherently single-threaded;
	// the sharded pipeline only replaces the event-driven loop.
	if e.multiWorker() {
		// Batched pipeline: workers first (the reader scatters into
		// their rings), then the scattering reader, then the batched
		// writer. Each worker runs a private MainWorker-shaped loop over
		// its own selector and ring.
		e.workers = make([]*worker, e.cfg.Workers)
		for i := range e.workers {
			w := &worker{id: i, q: newRingQ(e.cfg.RingSize, e.sels[i].Wakeup), sel: e.sels[i]}
			e.workers[i] = w
			e.wg.Add(1)
			go e.runWorker(w)
		}
		e.wg.Add(1)
		go e.tunReaderBatched()
	} else {
		// Paper-faithful Figure 4: per-packet TunReader + MainWorker.
		e.wg.Add(1)
		go e.tunReader()
		e.wg.Add(1)
		go e.mainWorker()
	}
	if e.writeQ != nil {
		e.wg.Add(1)
		if e.multiWorker() {
			go e.tunWriterBatched()
		} else {
			go e.tunWriter()
		}
	}
}

// multiWorker reports whether the sharded batched pipeline runs (as
// opposed to the paper-faithful single MainWorker, which every ablation
// measures and which stays bit-identical to the seed's behaviour).
func (e *Engine) multiWorker() bool {
	return e.cfg.Workers > 1 && e.cfg.MainLoopPoll <= 0
}

// Stop shuts the engine down. A dummy packet releases the blocked
// tunnel read (§3.1), the selector is closed to release the processing
// core, worker queues drain, and all external sockets are closed.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return
	}
	e.running = false
	close(e.stopped)
	e.mu.Unlock()

	// Release a TunReader blocked in read() by injecting a dummy packet
	// — MopEye's own trick (self-sent below 5.0, DownloadManager-
	// triggered on 5.0+; the bytes are identical from the reader's
	// perspective).
	_ = e.dev.InjectOutbound([]byte{0})
	for _, s := range e.sels {
		s.Wakeup()
	}
	if e.writeQ != nil {
		e.writeQ.close()
	}
	e.wg.Wait()
	// The packet-processing threads are gone, so no new UDP jobs can be
	// enqueued; stopping the relay closes its sessions and pool.
	e.udp.stop()
	for _, s := range e.sels {
		s.Close()
	}

	for _, c := range e.flows.Drain() {
		if ch := c.Ch(); ch != nil {
			ch.Close()
		}
	}
}

func (e *Engine) isRunning() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}
