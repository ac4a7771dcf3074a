package engine

import (
	"strconv"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sockets"
)

// RegisterMetrics wires the engine's existing hot-path state into a
// metrics registry. Everything here is a scrape-time read: counters
// are the same atomics Stats() snapshots, ring occupancy is two atomic
// loads per worker, and selector depths take each selector's mutex
// once per scrape (connection-rate locks, never the packet path). The
// relay pays nothing until something gathers.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	ctr := func(name, help string, a *atomic.Int64) {
		r.CounterFunc("mopeye_engine_"+name, help, func() float64 { return float64(a.Load()) })
	}
	ctr("packets_from_tun_total", "Packets read from the tunnel device.", &e.ctr.packetsFromTun)
	ctr("packets_to_tun_total", "Packets written back to the tunnel device.", &e.ctr.packetsToTun)
	ctr("bytes_up_total", "TCP payload bytes relayed app->server.", &e.ctr.bytesUp)
	ctr("bytes_down_total", "TCP payload bytes relayed server->app.", &e.ctr.bytesDown)
	ctr("syns_total", "TCP SYNs accepted from apps.", &e.ctr.syns)
	ctr("established_total", "Relay connections fully spliced.", &e.ctr.established)
	ctr("connect_failures_total", "Upstream connects that failed.", &e.ctr.connectFailures)
	ctr("tcp_measurements_total", "TCP RTT measurements recorded.", &e.ctr.tcpMeasurements)
	ctr("dns_measurements_total", "DNS RTT measurements recorded.", &e.ctr.dnsMeasurements)
	ctr("dns_timeouts_total", "Relayed DNS transactions that timed out.", &e.ctr.dnsTimeouts)
	ctr("pure_acks_total", "Pure ACK segments observed.", &e.ctr.pureACKs)
	ctr("decode_errors_total", "Tunnel packets that failed to decode.", &e.ctr.decodeErrors)
	ctr("udp_relayed_total", "Non-DNS UDP transactions relayed with a response.", &e.ctr.udpRelayed)
	ctr("udp_dropped_total", "UDP datagrams shed without a delivery attempt.", &e.ctr.udpDropped)
	ctr("udp_no_response_total", "Relayed UDP requests whose receive window closed empty.", &e.ctr.udpNoResponse)
	ctr("udp_late_relayed_total", "Late UDP responses forwarded by a stale drain.", &e.ctr.udpLate)
	ctr("udp_bytes_up_total", "UDP payload bytes relayed app->server.", &e.ctr.udpBytesUp)
	ctr("udp_bytes_down_total", "UDP payload bytes relayed server->app.", &e.ctr.udpBytesDown)
	ctr("read_batches_total", "Burst reads completed on the batched TUN path.", &e.ctr.readBatches)
	ctr("batched_packets_total", "Packets carried by completed burst reads.", &e.ctr.batchedPackets)

	r.GaugeFunc("mopeye_engine_read_batch_limit",
		"Current reader burst limit (fixed ReadBatch, or the AIMD governor's live value).",
		func() float64 { return float64(e.ctr.readBatchLimit.Load()) })
	r.GaugeFunc("mopeye_engine_avg_read_batch",
		"Realised burst size: batched packets per completed burst read.",
		func() float64 {
			b := e.ctr.readBatches.Load()
			if b == 0 {
				return 0
			}
			return float64(e.ctr.batchedPackets.Load()) / float64(b)
		})
	r.GaugeFunc("mopeye_engine_active_flows", "Live spliced TCP connections.",
		func() float64 { return float64(e.flows.Len()) })
	r.GaugeFunc("mopeye_engine_active_udp_sessions", "Live NAT-style UDP sessions.",
		func() float64 { return float64(e.ActiveUDPSessions()) })
	r.GaugeFunc("mopeye_engine_workers", "Configured packet-processing workers.",
		func() float64 { return float64(e.Workers()) })

	// Per-worker ring occupancy: tail-head over the SPSC atomics, so a
	// scrape sees each lane's backlog without touching the lane.
	r.CollectGauges("mopeye_engine_ring_occupancy",
		"Packets queued in each worker's input ring.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, len(e.workers))
			for _, w := range e.workers {
				occ := w.q.tail.Load() - w.q.head.Load()
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("worker", strconv.Itoa(w.id))},
					Value:  float64(occ),
				})
			}
			return out
		})
	r.CollectGauges("mopeye_engine_ring_capacity",
		"Capacity of each worker's input ring.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, len(e.workers))
			for _, w := range e.workers {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("worker", strconv.Itoa(w.id))},
					Value:  float64(w.q.capacity()),
				})
			}
			return out
		})

	// Selector state, one sample per selector: labeled by worker on the
	// sharded path, and "shared" for the MainWorker's single selector.
	type labeledSelector struct {
		label string
		sel   *sockets.Selector
	}
	selectors := func() []labeledSelector {
		if !e.multiWorker() {
			return []labeledSelector{{label: "shared", sel: e.sels[0]}}
		}
		out := make([]labeledSelector, len(e.sels))
		for i, s := range e.sels {
			out[i] = labeledSelector{label: strconv.Itoa(i), sel: s}
		}
		return out
	}
	selGauge := func(name, help string, pick func(sockets.SelectorStats) float64) {
		r.CollectGauges("mopeye_engine_"+name, help, func() []metrics.Sample {
			ls := selectors()
			out := make([]metrics.Sample, 0, len(ls))
			for _, s := range ls {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("selector", s.label)},
					Value:  pick(s.sel.Stats()),
				})
			}
			return out
		})
	}
	selCounter := func(name, help string, pick func(sockets.SelectorStats) float64) {
		r.CollectCounters("mopeye_engine_"+name, help, func() []metrics.Sample {
			ls := selectors()
			out := make([]metrics.Sample, 0, len(ls))
			for _, s := range ls {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L("selector", s.label)},
					Value:  pick(s.sel.Stats()),
				})
			}
			return out
		})
	}
	selCounter("selector_selects_total", "Select returns per selector.",
		func(st sockets.SelectorStats) float64 { return float64(st.Selects) })
	selCounter("selector_wakeups_total", "Explicit selector wakeups.",
		func(st sockets.SelectorStats) float64 { return float64(st.Wakeups) })
	selGauge("selector_ready_depth", "Keys queued ready on each selector right now.",
		func(st sockets.SelectorStats) float64 { return float64(st.ReadyDepth) })
	selGauge("selector_keys", "Keys registered on each selector.",
		func(st sockets.SelectorStats) float64 { return float64(st.Keys) })
}
