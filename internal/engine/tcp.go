package engine

import (
	"errors"
	"time"

	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/relay"
	"repro/internal/sockets"
	"repro/internal/tcpsm"
)

// Tunnel-packet and socket-event handling (§2.3), shared by the single
// MainWorker loop and the sharded multi-worker pipeline. Handlers for
// one flow always run on one thread (MainWorker, or the flow's pinned
// worker), so the only cross-thread state they touch — the flow table,
// the counters, the traffic book, the stores — is individually
// synchronised.

// handleTunnelPacket decodes and processes one tunnel packet on the
// calling (single-worker) thread.
func (e *Engine) handleTunnelPacket(raw []byte) {
	pkt, err := packet.Decode(raw)
	if err != nil {
		e.ctr.decodeErrors.Add(1)
		return
	}
	e.processPacket(pkt, len(raw))
}

// processPacket implements §2.3's tunnel-packet processing for an
// already-decoded packet.
func (e *Engine) processPacket(pkt *packet.Packet, rawLen int) {
	e.ctr.packetsFromTun.Add(1)
	if e.cfg.PerPacketCost > 0 {
		e.clk.SleepFine(e.cfg.PerPacketCost)
	}
	if e.cfg.InspectPackets {
		e.meter.AddInspected(1)
	}
	e.meter.AddPackets(1, int64(rawLen))

	switch {
	case pkt.IsTCP():
		e.handleTunnelTCP(pkt)
	case pkt.IsUDP():
		e.handleTunnelUDP(pkt)
	}
}

func (e *Engine) handleTunnelTCP(pkt *packet.Packet) {
	flow := packet.Flow(pkt)
	t := pkt.TCP

	cl, _ := e.flows.Get(flow)

	switch {
	case t.Has(packet.FlagSYN) && !t.Has(packet.FlagACK):
		if cl != nil {
			return // SYN retransmission while connect in flight
		}
		e.onSYN(pkt, flow)

	case t.Has(packet.FlagRST):
		if cl == nil {
			return
		}
		// §2.3 TCP RST: close the external connection, drop the client.
		cl.SM.OnRST()
		e.removeClient(cl)
		if ch := cl.Ch(); ch != nil {
			ch.Reset()
		}

	case t.Has(packet.FlagFIN):
		if cl == nil {
			return
		}
		data, err := cl.SM.OnFIN(pkt)
		if err == nil && len(data) > 0 {
			cl.EnqueueWrite(data)
		}
		cl.RequestHalfClose()
		e.triggerWrite(cl)

	case len(pkt.Payload) > 0:
		if cl == nil {
			return
		}
		data, err := cl.SM.OnData(pkt)
		if err != nil || len(data) == 0 {
			return
		}
		e.ctr.bytesUp.Add(int64(len(data)))
		cl.EnqueueWrite(data)
		e.triggerWrite(cl)

	default:
		// Pure ACK: discarded, nothing to relay (§2.3).
		if cl != nil {
			cl.SM.OnPureACK()
		}
		e.ctr.pureACKs.Add(1)
	}
}

// triggerWrite raises the socket write event for a client whose buffer
// has data (or a pending half close). Before the external connection
// exists the data simply waits in the buffer; the socket-connect thread
// triggers the flush after registering.
func (e *Engine) triggerWrite(cl *relay.TCPClient) {
	if k, ch := cl.Key(), cl.Ch(); k != nil && ch != nil && ch.Connected() {
		k.SetInterestOps(sockets.OpRead | sockets.OpWrite)
	}
}

// onSYN creates the state machine and client and starts the temporary
// socket-connect thread (§2.4).
func (e *Engine) onSYN(pkt *packet.Packet, flow packet.FlowKey) {
	e.rngMu.Lock()
	iss := e.rng.Uint32()
	e.rngMu.Unlock()
	sm, err := newMachine(pkt, iss, e.emit)
	if err != nil {
		return
	}
	cl := relay.NewTCPClient(flow, sm, e.clk.Nanos())
	cl.Shard = e.flows.Shard(flow)
	e.ctr.syns.Add(1)
	e.flows.Put(flow, cl)
	e.meter.ObserveConns(e.flows.Len())

	if e.cfg.Mapping == MapEager {
		// Pre-§3.3 behaviour: parse on the main thread, per SYN.
		info, _ := e.mapper.resolve(flow.Src, flow.Dst, cl.SYNAt)
		cl.SetApp(info.UID, info.Name)
	}
	if e.cfg.Protect == ProtectPerSocketMainThread {
		// Naive placement: the protect cost lands on MainWorker,
		// stalling every other flow (§3.5.2).
		ch := e.prov.Open()
		ch.Protect()
		cl.SetCh(ch)
	}

	if e.cfg.BlockingConnectMeasure {
		go e.socketConnectBlocking(cl)
	} else {
		e.socketConnectEventDriven(cl)
	}
}

// socketConnectBlocking is the temporary socket-connect thread: blocking
// connect with timestamps immediately around the call (§2.4), then the
// internal handshake, deferred selector registration (§3.4), and lazy
// mapping (§3.3).
func (e *Engine) socketConnectBlocking(cl *relay.TCPClient) {
	// The temporary thread pays its spawn/scheduling latency first;
	// the measurement timestamps below are unaffected (§2.4's design
	// keeps them immediately around the connect call).
	e.prov.ChargeThreadSpawn()
	ch := cl.Ch()
	if ch == nil {
		ch = e.prov.Open()
		cl.SetCh(ch)
	}
	if e.cfg.Protect == ProtectPerSocket {
		// §3.5.2 mitigation for pre-5.0: pay protect() here so only
		// this connection's SYN is delayed.
		ch.Protect()
	}
	t0 := e.clk.Nanos()
	err := ch.Connect(cl.Flow.Dst)
	t1 := e.clk.Nanos()
	if err != nil {
		cl.SM.Refuse()
		e.connectFailed(cl)
		return
	}
	// Only after establishing the external connection is the handshake
	// with the app completed (§2.3).
	if err := cl.SM.CompleteHandshake(); err != nil {
		e.removeClient(cl)
		ch.Close()
		return
	}
	e.ctr.established.Add(1)

	// DeferRegister or not, registration happens here in blocking mode;
	// the §3.4 cost model is identical either way. The key lands on the
	// selector of the worker that owns this flow's shard (the
	// MainWorker's one selector at Workers=1), pinning readiness
	// delivery to the thread that relays the flow.
	key := e.selectorFor(cl.Shard).Register(ch, sockets.OpRead, cl)
	cl.SetKey(key)
	if cl.PendingWrites() || cl.HalfCloseRequested() {
		key.SetInterestOps(sockets.OpRead | sockets.OpWrite)
	}

	// Lazy mapping: after the connection is established or failed, so
	// the app-side handshake is never delayed (§3.3).
	if e.cfg.Mapping != MapEager {
		info, _ := e.mapper.resolve(cl.Flow.Src, cl.Flow.Dst, cl.SYNAt)
		cl.SetApp(info.UID, info.Name)
	}
	e.recordTCP(cl, time.Duration(t1-t0))
}

// socketConnectEventDriven is the pre-§2.4 alternative: non-blocking
// connect whose completion is observed through the selector, inheriting
// dispatch latency into the RTT (the inaccuracy Table 2 shows for
// MobiPerf-style measurement).
func (e *Engine) socketConnectEventDriven(cl *relay.TCPClient) {
	ch := cl.Ch()
	if ch == nil {
		ch = e.prov.Open()
		cl.SetCh(ch)
	}
	if e.cfg.Protect == ProtectPerSocket {
		ch.Protect()
	}
	key := e.selectorFor(cl.Shard).Register(ch, sockets.OpRead|sockets.OpConnect, cl)
	cl.SetKey(key)
	connStart := e.clk.Nanos()
	key.Attach(&eventConnect{client: cl, start: connStart})
	if err := ch.ConnectNonBlocking(cl.Flow.Dst); err != nil {
		cl.SM.Refuse()
		e.connectFailed(cl)
	}
}

// eventConnect carries the non-blocking connect context on the key.
type eventConnect struct {
	client *relay.TCPClient
	start  int64
}

func (e *Engine) connectFailed(cl *relay.TCPClient) {
	e.ctr.connectFailures.Add(1)
	e.removeClient(cl)
	if ch := cl.Ch(); ch != nil {
		ch.Close()
	}
}

func (e *Engine) removeClient(cl *relay.TCPClient) {
	if !cl.MarkRemoved() {
		return
	}
	// Fold the connection's volume into the per-app accounting; the
	// attribution is final by now (mapping runs before any teardown
	// path a healthy connection takes).
	st := cl.SM.Stats()
	_, app := cl.AppInfo()
	e.traffic.volume(app, st.BytesFromApp, st.BytesToApp)
	e.flows.Delete(cl.Flow)
}

// recordTCP stores one per-app RTT measurement via the engine's emit
// point (emit.go), which also feeds the subscriber broadcast.
func (e *Engine) recordTCP(cl *relay.TCPClient, rtt time.Duration) {
	e.ctr.tcpMeasurements.Add(1)
	uid, app := cl.AppInfo()
	e.traffic.connection(app)
	e.record(measure.KindTCP, app, uid, cl.Flow.Dst, "", rtt)
}

// handleSocketKey processes §2.3's socket events on the thread whose
// selector returned the key, claiming the key's (consume-once)
// readiness.
func (e *Engine) handleSocketKey(k *sockets.SelectionKey) {
	ready := k.ReadyOps()
	if ready == 0 {
		return
	}
	var cl *relay.TCPClient
	switch a := k.Attachment().(type) {
	case *relay.TCPClient:
		cl = a
	case *eventConnect:
		cl = a.client
		if ready&sockets.OpConnect != 0 {
			e.finishEventConnect(k, a)
			ready &^= sockets.OpConnect
		}
	default:
		return
	}
	if cl == nil || cl.Removed() {
		return
	}
	if ready&sockets.OpRead != 0 {
		e.socketRead(cl)
	}
	if ready&sockets.OpWrite != 0 {
		e.socketWrite(cl)
	}
}

// finishEventConnect completes a non-blocking connect observed via the
// selector.
func (e *Engine) finishEventConnect(k *sockets.SelectionKey, ec *eventConnect) {
	cl := ec.client
	ch := cl.Ch()
	now := e.clk.Nanos()
	if err := ch.FinishConnect(); err != nil {
		if errors.Is(err, sockets.ErrConnPending) {
			return
		}
		cl.SM.Refuse()
		e.connectFailed(cl)
		return
	}
	if err := cl.SM.CompleteHandshake(); err != nil {
		e.removeClient(cl)
		ch.Close()
		return
	}
	e.ctr.established.Add(1)
	k.Attach(cl)
	k.SetInterestOps(sockets.OpRead)
	if cl.PendingWrites() || cl.HalfCloseRequested() {
		k.SetInterestOps(sockets.OpRead | sockets.OpWrite)
	}
	if e.cfg.Mapping != MapEager {
		info, _ := e.mapper.resolve(cl.Flow.Src, cl.Flow.Dst, cl.SYNAt)
		cl.SetApp(info.UID, info.Name)
	}
	// The RTT includes selector dispatch latency — the inaccuracy the
	// blocking socket-connect thread eliminates.
	e.recordTCP(cl, time.Duration(now-ec.start))
}

// socketRead handles §2.3 Socket Read: drain incoming server data into
// internal-connection data packets; on EOF generate FIN; on reset
// generate RST.
func (e *Engine) socketRead(cl *relay.TCPClient) {
	ch := cl.Ch()
	buf := make([]byte, 16*1024)
	for {
		n, err := ch.Read(buf)
		if n > 0 {
			e.ctr.bytesDown.Add(int64(n))
			e.meter.AddPackets(int64((n+e.cfg.MSS-1)/e.cfg.MSS), int64(n))
			if e.cfg.InspectPackets {
				e.meter.AddInspected(int64((n + e.cfg.MSS - 1) / e.cfg.MSS))
			}
			if serr := cl.SM.SendData(buf[:n]); serr != nil {
				return
			}
			continue
		}
		switch {
		case err == nil:
			return // would block; wait for the next read event
		case errors.Is(err, sockets.ErrEOF):
			_ = cl.SM.SendFIN()
			e.maybeFinish(cl)
			return
		default:
			cl.SM.SendRST()
			e.removeClient(cl)
			ch.Close()
			return
		}
	}
}

// socketWrite handles §2.3 Socket Write: flush the write buffer to the
// server, then instruct the state machine to ACK the app; on a pending
// half close, half-close the external connection and clear write
// interest.
func (e *Engine) socketWrite(cl *relay.TCPClient) {
	ch := cl.Ch()
	bufs := cl.TakeWrites()
	wrote := false
	for _, b := range bufs {
		if _, err := ch.Write(b); err != nil {
			cl.SM.SendRST()
			e.removeClient(cl)
			ch.Close()
			return
		}
		wrote = true
	}
	if wrote {
		_ = cl.SM.AckApp()
	}
	if cl.HalfCloseRequested() && !cl.PendingWrites() {
		_ = ch.CloseWrite()
		e.maybeFinish(cl)
	}
	if k := cl.Key(); k != nil {
		k.SetInterestOps(sockets.OpRead)
	}
}

// maybeFinish removes clients whose both directions have finished.
func (e *Engine) maybeFinish(cl *relay.TCPClient) {
	if cl.SM.State() == tcpsm.StateClosed {
		e.removeClient(cl)
		if ch := cl.Ch(); ch != nil {
			ch.Close()
		}
	}
}
