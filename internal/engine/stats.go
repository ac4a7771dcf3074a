package engine

import (
	"sync/atomic"

	"repro/internal/stats"
)

// Stats aggregates engine activity.
type Stats struct {
	SYNs            int
	Established     int
	ConnectFailures int
	TCPMeasurements int
	DNSMeasurements int
	PacketsFromTun  int
	PacketsToTun    int
	BytesUp         int64
	BytesDown       int64
	PureACKs        int
	UDPRelayed      int
	DecodeErrors    int

	// DNSTimeouts counts relayed DNS transactions whose blocking
	// receive expired (§2.4 leaves retries to the app's resolver; the
	// failure is still worth surfacing).
	DNSTimeouts int
	// UDPDropped counts datagrams the relay shed without attempting
	// delivery: pooled job-queue overflow, NAT-table exhaustion, or the
	// DNS inflight cap — UDP's contract under flood.
	UDPDropped int
	// UDPNoResponse counts relayed non-DNS requests whose receive
	// window (Config.UDPTimeout) closed with nothing back. The request
	// went out and is gone as far as this transaction is concerned;
	// nothing is silent — every relayed datagram lands in exactly one
	// of UDPRelayed or UDPNoResponse.
	UDPNoResponse int
	// UDPLateRelayed counts responses forwarded by a later datagram's
	// stale drain after their own transaction had already been counted
	// in UDPNoResponse (a NAT forwards late responses for as long as
	// the mapping lives). Kept separate from UDPRelayed so the
	// per-datagram accounting identity stays exact:
	// UDPLateRelayed ≤ UDPNoResponse always.
	UDPLateRelayed int
	// UDPBytesUp/UDPBytesDown are relayed non-DNS UDP payload volumes
	// (app->server / server->app).
	UDPBytesUp   int64
	UDPBytesDown int64

	// ReadBatches counts burst reads on the multi-worker batched read
	// path; BatchedPackets is the packets those bursts carried, so
	// BatchedPackets/ReadBatches is the realised burst size (1.0 means
	// batching bought nothing). Both stay zero on the paper-faithful
	// single-worker path.
	ReadBatches    int
	BatchedPackets int

	// ReadBatchLimit is the reader's current burst limit: the fixed
	// Config.ReadBatch normally, or the AIMD governor's live value
	// under ReadBatchAuto — watching it against AvgReadBatch shows
	// whether the governor has converged on the workload. Zero on the
	// single-worker path.
	ReadBatchLimit int
	// AvgReadBatch is the realised burst size,
	// BatchedPackets/ReadBatches (0 when no burst has completed).
	AvgReadBatch float64

	// WriteHist is the tunnel-write delay as observed by the writing
	// thread; PutHist is the enqueue delay (Table 1).
	WriteHist stats.DelayHistogram
	PutHist   stats.DelayHistogram

	Mapping MappingStats
}

// UDPAccounted sums the relay's five terminal per-datagram counters.
// Every UDP datagram the app side sends ends in exactly one of them: a
// DNS answer measured or timed out, a response relayed, a request
// whose receive window closed empty, or a datagram shed. So at any
// moment UDPAccounted never exceeds the datagrams sent, and once the
// traffic settles it equals them.
func (s Stats) UDPAccounted() int {
	return s.DNSMeasurements + s.DNSTimeouts + s.UDPRelayed + s.UDPNoResponse + s.UDPDropped
}

// counters holds the hot engine counters as atomics. The paper's engine
// could guard these with the one engine mutex because one MainWorker
// produced nearly all of them; with N workers (and the UDP/connect
// threads) updating concurrently, atomics keep the hot path free of a
// global lock and let Stats() snapshot without stalling the relay.
type counters struct {
	syns            atomic.Int64
	established     atomic.Int64
	connectFailures atomic.Int64
	tcpMeasurements atomic.Int64
	dnsMeasurements atomic.Int64
	packetsFromTun  atomic.Int64
	packetsToTun    atomic.Int64
	bytesUp         atomic.Int64
	bytesDown       atomic.Int64
	pureACKs        atomic.Int64
	udpRelayed      atomic.Int64
	decodeErrors    atomic.Int64
	dnsTimeouts     atomic.Int64
	udpDropped      atomic.Int64
	udpNoResponse   atomic.Int64
	udpLate         atomic.Int64
	udpBytesUp      atomic.Int64
	udpBytesDown    atomic.Int64
	readBatches     atomic.Int64
	batchedPackets  atomic.Int64
	readBatchLimit  atomic.Int64 // gauge: the reader's current burst limit
}

// Stats snapshots the engine counters, folding in mapper and queue
// state. The counters are independent atomics, so the snapshot is not
// a single point in time; loading effects before their causes
// (measurements before established before SYNs) keeps the visible
// invariants — Established ≤ SYNs, TCPMeasurements ≤ Established —
// intact even while connections race the snapshot.
func (e *Engine) Stats() Stats {
	s := Stats{
		TCPMeasurements: int(e.ctr.tcpMeasurements.Load()),
		ConnectFailures: int(e.ctr.connectFailures.Load()),
		Established:     int(e.ctr.established.Load()),
		SYNs:            int(e.ctr.syns.Load()),
		DNSMeasurements: int(e.ctr.dnsMeasurements.Load()),
		PacketsFromTun:  int(e.ctr.packetsFromTun.Load()),
		PacketsToTun:    int(e.ctr.packetsToTun.Load()),
		BytesUp:         e.ctr.bytesUp.Load(),
		BytesDown:       e.ctr.bytesDown.Load(),
		PureACKs:        int(e.ctr.pureACKs.Load()),
		UDPRelayed:      int(e.ctr.udpRelayed.Load()),
		DecodeErrors:    int(e.ctr.decodeErrors.Load()),
		DNSTimeouts:     int(e.ctr.dnsTimeouts.Load()),
		UDPDropped:      int(e.ctr.udpDropped.Load()),
		UDPNoResponse:   int(e.ctr.udpNoResponse.Load()),
		UDPLateRelayed:  int(e.ctr.udpLate.Load()),
		UDPBytesUp:      e.ctr.udpBytesUp.Load(),
		UDPBytesDown:    e.ctr.udpBytesDown.Load(),
		ReadBatches:     int(e.ctr.readBatches.Load()),
		BatchedPackets:  int(e.ctr.batchedPackets.Load()),
		ReadBatchLimit:  int(e.ctr.readBatchLimit.Load()),
	}
	if s.ReadBatches > 0 {
		s.AvgReadBatch = float64(s.BatchedPackets) / float64(s.ReadBatches)
	}
	e.histMu.Lock()
	s.WriteHist = e.writeHist
	e.histMu.Unlock()
	s.Mapping = e.mapper.stats()
	if e.writeQ != nil {
		s.PutHist = e.writeQ.putHistogram()
	}
	return s
}

// ActiveClients reports the number of live spliced connections.
func (e *Engine) ActiveClients() int {
	return e.flows.Len()
}

// Workers reports how many packet-processing workers the engine runs
// (1 for the paper-faithful MainWorker loop).
func (e *Engine) Workers() int {
	return e.cfg.Workers
}
