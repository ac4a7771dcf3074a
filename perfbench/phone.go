package main

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/tun"
)

// Helpers shared by the two phone workloads: building a loopback phone,
// snapshotting its layers' public Stats, and the phone-side gates.

// loopbackPhone builds a phone with echo servers on a zero-delay
// loopback network, default (non-realistic) cost models, and cfg's
// engine.
func loopbackPhone(cfg engine.Config, seed int64, servers []netsim.ServerSpec) (*testbed.Bed, error) {
	return testbed.New(testbed.Options{
		Engine:    cfg,
		EngineSet: true,
		Servers:   servers,
		Loopback:  true,
		Seed:      seed,
	})
}

// echoServers returns n loopback echo servers named <prefix><i>.example
// at 203.0.113.(10+i):80.
func echoServers(prefix string, n int) []netsim.ServerSpec {
	out := make([]netsim.ServerSpec, n)
	for i := range out {
		out[i] = netsim.ServerSpec{
			Domain:  fmt.Sprintf("%s%d.example", prefix, i),
			Addr:    netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}), 80),
			Handler: netsim.EchoHandler(),
		}
	}
	return out
}

// phoneSnap is one instant of the phone's layer counters.
type phoneSnap struct {
	tun tun.Stats
	eng engine.Stats
}

func snapPhone(b *testbed.Bed) phoneSnap {
	return phoneSnap{tun: b.Dev.Stats(), eng: b.Eng.Stats()}
}

// histDelta subtracts two cumulative Table 1 histograms.
func histDelta(a, b stats.DelayHistogram) stats.DelayHistogram {
	d := stats.DelayHistogram{Total: b.Total - a.Total}
	for i := range d.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// phoneLayers derives the tun and engine per-layer metrics from two
// snapshots.
func phoneLayers(a, b phoneSnap, into map[string]float64) {
	pkts := float64(b.tun.PacketsOut - a.tun.PacketsOut)
	into["tun.read_wait_us"] = ratio(us(b.tun.ReadDelaySum-a.tun.ReadDelaySum), pkts)
	into["tun.empty_reads_per_pkt"] = ratio(float64(b.tun.EmptyReads-a.tun.EmptyReads), pkts)
	into["tun.drops"] = float64(b.tun.Drops - a.tun.Drops)

	e, f := a.eng, b.eng
	into["engine.avg_read_batch"] = ratio(float64(f.BatchedPackets-e.BatchedPackets), float64(f.ReadBatches-e.ReadBatches))
	// The public histograms resolve 1 ms (Table 1's buckets), so they
	// give the share of slow puts and writes, not a median.
	put, write := histDelta(e.PutHist, f.PutHist), histDelta(e.WriteHist, f.WriteHist)
	into["engine.put_gt1ms_frac"] = put.LargeFraction()
	into["engine.write_gt1ms_frac"] = write.LargeFraction()
	into["engine.udp_relayed"] = float64(f.UDPRelayed - e.UDPRelayed)
	into["engine.udp_dropped"] = float64(f.UDPDropped - e.UDPDropped)
	into["engine.udp_no_response"] = float64(f.UDPNoResponse - e.UDPNoResponse)
	into["engine.dns_timeouts"] = float64(f.DNSTimeouts - e.DNSTimeouts)
	res := float64(len(f.Mapping.Overheads) - len(e.Mapping.Overheads))
	into["engine.mapping_avoided_ratio"] = ratio(float64(f.Mapping.Avoided-e.Mapping.Avoided), res)
	into["engine.mapping_parses_per_syn"] = ratio(float64(f.Mapping.Parses-e.Mapping.Parses), float64(f.SYNs-e.SYNs))
	into["engine.measurements_per_connect"] = ratio(float64(f.TCPMeasurements-e.TCPMeasurements), float64(f.Established-e.Established))
}

// accounted sums the engine's terminal per-datagram counters: every
// datagram the phone stack sends must end in exactly one of them.
func accounted(s engine.Stats) int64 {
	return int64(s.DNSMeasurements + s.DNSTimeouts + s.UDPRelayed + s.UDPNoResponse + s.UDPDropped)
}

// phoneGates checks the phone's lifetime outputs: one TCP measurement
// per connect the apps saw succeed, one DNS measurement per successful
// resolve, the store holding exactly those, and the five-term UDP
// identity. Measurement emit and UDP accounting may trail the app's
// view by a scheduling delay, so the check polls until it holds or a
// settle deadline passes.
func phoneGates(b *testbed.Bed, connects, resolves int64) []string {
	deadline := time.Now().Add(3 * time.Second)
	for {
		var v []string
		st := b.Eng.Stats()
		if int64(st.TCPMeasurements) != connects {
			v = append(v, fmt.Sprintf("%d connects succeeded but the engine emitted %d TCP measurements", connects, st.TCPMeasurements))
		}
		if int64(st.DNSMeasurements) != resolves {
			v = append(v, fmt.Sprintf("%d resolves succeeded but the engine emitted %d DNS measurements", resolves, st.DNSMeasurements))
		}
		if tcp, dns := len(b.Store.Kind(measure.KindTCP)), len(b.Store.Kind(measure.KindDNS)); int64(tcp) != connects || int64(dns) != resolves {
			v = append(v, fmt.Sprintf("store holds %d TCP / %d DNS measurements, want %d / %d", tcp, dns, connects, resolves))
		}
		if sent, acc := b.Phone.UDPDatagramsSent(), accounted(st); sent != acc {
			v = append(v, fmt.Sprintf("UDP identity: %d datagrams sent, %d accounted (dns %d + dns-timeouts %d + relayed %d + no-response %d + dropped %d)",
				sent, acc, st.DNSMeasurements, st.DNSTimeouts, st.UDPRelayed, st.UDPNoResponse, st.UDPDropped))
		}
		if len(v) == 0 || time.Now().After(deadline) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
}
