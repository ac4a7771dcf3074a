package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/crowd"
	"repro/internal/dnsmsg"
	"repro/internal/engine"
	"repro/internal/flowtable"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/procnet"
	"repro/internal/sketch"
	"repro/internal/sockets"
	"repro/internal/tcpsm"
)

// Isolated replays: each layer's public functions run alone on inputs
// generated from the seed and shaped like the workload (packet sizes,
// live-flow and live-socket counts), timed per op.

// shape is the part of a workload the replays are sized by.
type shape struct {
	liveFlows   int // flow-table entries live at the end of the timed phase
	liveSockets int // most proc-table sockets seen at once
}

const (
	replayRounds   = 5
	selectIdleKeys = 1024
)

// Sinks keep the compiler from discarding replayed calls.
var (
	sinkKey     packet.FlowKey
	sinkPkt     *packet.Packet
	sinkBytes   []byte
	sinkInt     int
	sinkFloat   float64
	sinkErr     error
	sinkBatch   measure.Batch
	sinkDNS     *dnsmsg.Message
	sinkEntries []procnet.Entry
)

// timeOps runs fn(i) for i in [0,n) replayRounds times and returns the
// median per-op time in ns and the mean allocations per op.
func timeOps(n int, fn func(i int)) (nsPerOp, allocs float64) {
	var per []float64
	var mallocs uint64
	var m runtime.MemStats
	for r := 0; r < replayRounds; r++ {
		runtime.ReadMemStats(&m)
		before := m.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m)
		mallocs += m.Mallocs - before
		per = append(per, float64(d)/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2], float64(mallocs) / float64(n*replayRounds)
}

var (
	replayApp    = netip.MustParseAddrPort("10.0.0.2:40000")
	replayServer = netip.MustParseAddrPort("203.0.113.10:80")
)

// replays runs every layer replay and returns its per-layer metrics.
func replays(sh shape, seed int64, workdir string) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	payload := make([]byte, floodPayload)
	rng.Read(payload)

	// packet: the flood's three shapes, round-robin.
	pkts := []*packet.Packet{
		packet.TCPPacket(replayApp, replayServer, packet.FlagACK|packet.FlagPSH, 1000, 2000, 65535, nil, payload),
		packet.UDPPacket(replayApp, floodUDPEcho, payload[:floodUDPPayload]),
		packet.TCPPacket(replayApp, replayServer, packet.FlagSYN, 999, 0, 65535, packet.MSSOption(1460), nil),
	}
	var raws [][]byte
	for _, p := range pkts {
		raw, err := p.Encode()
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
	}
	d, _ := timeOps(30000, func(i int) { sinkKey, sinkErr = packet.PeekFlowKey(raws[i%3]) })
	out["packet.peek_ns"] = d
	d, a := timeOps(30000, func(i int) { sinkPkt, sinkErr = packet.Decode(raws[i%3]) })
	out["packet.decode_ns"], out["packet.decode_allocs"] = d, a
	buf := make([]byte, 0, 2048)
	d, a = timeOps(30000, func(i int) { sinkBytes, sinkErr = pkts[i%3].AppendEncode(buf[:0]) })
	out["packet.encode_ns"], out["packet.encode_allocs"] = d, a

	// flowtable: lookups at the workload's live-flow count, then the
	// churn's insert/delete pair.
	live := max(sh.liveFlows, 1)
	ft := flowtable.New[int](engine.Default().FlowShards)
	keys := make([]packet.FlowKey, live)
	for i := range keys {
		keys[i] = packet.FlowKey{Proto: 6, Src: netip.AddrPortFrom(replayApp.Addr(), uint16(20000+i)), Dst: replayServer}
		ft.Put(keys[i], i)
	}
	d, _ = timeOps(100000, func(i int) { sinkInt, _ = ft.Get(keys[i%live]) })
	out["flowtable.get_ns"] = d
	d, _ = timeOps(50000, func(i int) {
		k := packet.FlowKey{Proto: 6, Src: netip.AddrPortFrom(replayApp.Addr(), uint16(i)), Dst: replayServer}
		ft.Put(k, i)
		ft.Delete(k)
	})
	out["flowtable.put_delete_ns"] = d

	// tcpsm: a handshake, and one relayed 1200 B data step.
	syn, err := packet.Decode(raws[2])
	if err != nil {
		return nil, err
	}
	emit := func(*packet.Packet) {}
	d, _ = timeOps(20000, func(int) {
		m, err := tcpsm.New(syn, 7, emit)
		if err == nil {
			err = m.CompleteHandshake()
		}
		sinkErr = err
	})
	out["tcpsm.handshake_ns"] = d
	m, err := tcpsm.New(syn, 7, emit)
	if err != nil {
		return nil, err
	}
	if err := m.CompleteHandshake(); err != nil {
		return nil, err
	}
	data, err := packet.Decode(raws[0])
	if err != nil {
		return nil, err
	}
	seq := syn.TCP.Seq + 1
	d, _ = timeOps(20000, func(int) {
		data.TCP.Seq = seq
		got, err := m.OnData(data)
		seq += uint32(len(got))
		if err == nil {
			err = m.AckApp()
		}
		if err == nil {
			err = m.SendData(payload)
		}
		sinkErr = err
	})
	out["tcpsm.data_step_ns"] = d

	// sockets: Select with idle keys registered and one key ready.
	clk := clock.NewReal()
	nw := netsim.New(clk, netsim.LinkParams{}, seed)
	prov := sockets.NewProvider(nw, clk, netip.MustParseAddr("100.64.0.5"), sockets.ZeroCosts(), seed)
	sel := prov.NewSelector()
	for i := 0; i < selectIdleKeys; i++ {
		sel.Register(prov.Open(), sockets.OpRead, nil)
	}
	k := sel.Register(prov.Open(), sockets.OpRead, nil)
	d, _ = timeOps(50000, func(int) {
		k.SetInterestOps(sockets.OpRead | sockets.OpWrite)
		sinkInt = len(sel.Select())
		k.ReadyOps()
		k.SetInterestOps(sockets.OpRead)
	})
	out["sockets.select_ns"] = d
	sel.Close()
	nw.Close()

	// procnet: parse /proc/net/tcp at the workload's live-socket count.
	tbl := procnet.NewTable()
	for i := 0; i < max(sh.liveSockets, 1); i++ {
		tbl.Add(procnet.Entry{
			Proto: procnet.TCP, Local: netip.AddrPortFrom(replayApp.Addr(), uint16(30000+i)),
			Remote: replayServer, State: procnet.StateEstablished, UID: 30001 + i%churnApps,
		})
	}
	text := tbl.Render(procnet.TCP)
	d, _ = timeOps(2000, func(int) { sinkEntries, sinkErr = procnet.ParseFile(text, procnet.TCP) })
	out["procnet.parse_us"] = d / 1e3

	// dnsmsg: the churn's A query answered with one address.
	q := dnsmsg.NewQuery(uint16(rng.Uint32()), "churn0.example", dnsmsg.TypeA)
	resp := dnsmsg.NewResponse(q, dnsmsg.RCodeOK)
	resp.AddAddress("churn0.example", replayServer.Addr(), 60)
	rawResp, err := resp.Encode()
	if err != nil {
		return nil, err
	}
	d, _ = timeOps(30000, func(int) { sinkDNS, sinkErr = dnsmsg.Decode(rawResp) })
	out["dnsmsg.decode_ns"] = d
	d, _ = timeOps(30000, func(int) { sinkBytes, sinkErr = resp.Encode() })
	out["dnsmsg.encode_ns"] = d

	// measure: store adds with and without a live subscriber, and the
	// upload wire format.
	rec := measure.Record{Kind: measure.KindTCP, App: "churn.app00", UID: 30001, Dst: replayServer,
		RTT: 104 * time.Microsecond, NetType: "WiFi", ISP: "SimNet", Country: "SG"}
	store := measure.NewStore()
	d, _ = timeOps(50000, func(int) { store.Add(rec) })
	out["measure.store_add_ns_0sub"] = d
	store = measure.NewStore()
	sub := store.Subscribe(0, nil)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, ok := sub.Next(context.Background()); !ok {
				return
			}
		}
	}()
	d, _ = timeOps(50000, func(int) { store.Add(rec) })
	store.CloseSubscribers()
	<-drained
	out["measure.store_add_ns_1sub"] = d

	pop := paperRecords(seed)
	batch := measure.Batch{Device: "sim-1", Key: "sim-1/b0", Records: make([]measure.Record, ingestRecords)}
	for i := range batch.Records {
		batch.Records[i] = pop[i]
		batch.Records[i].Device = batch.Device
	}
	var enc bytes.Buffer
	d, _ = timeOps(5000, func(int) {
		enc.Reset()
		sinkErr = measure.EncodeBatch(&enc, batch)
	})
	out["measure.encode_batch_us"] = d / 1e3
	out["measure.batch_bytes"] = float64(enc.Len())
	rawBatch := append([]byte(nil), enc.Bytes()...)
	d, _ = timeOps(5000, func(int) { sinkBatch, sinkErr = measure.DecodeBatch(bytes.NewReader(rawBatch)) })
	out["measure.decode_batch_us"] = d / 1e3

	// crowd: spool appends in a scratch directory.
	dir, err := os.MkdirTemp(workdir, "replay-spool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp, _, err := crowd.OpenSpool(dir)
	if err != nil {
		return nil, err
	}
	d, _ = timeOps(2000, func(int) { sinkErr = sp.Append(batch) })
	out["crowd.spool_append_us"] = d / 1e3
	out["crowd.spool_bytes_per_record"] = ratio(float64(sp.Stats().Bytes), float64(2000*replayRounds*ingestRecords))
	if err := sp.Close(); err != nil {
		return nil, err
	}

	// sketch: adds, and the median of a sketch filled with the
	// population's TCP connect RTTs.
	var xs []float64
	for _, r := range pop {
		if r.Kind == measure.KindTCP {
			xs = append(xs, r.Millis())
		}
	}
	sk := sketch.New(sketch.DefaultAlpha)
	d, _ = timeOps(100000, func(i int) { sk.Add(xs[i%len(xs)]) })
	out["sketch.add_ns"] = d
	d, _ = timeOps(20000, func(int) { sinkFloat = sk.Quantile(0.5) })
	out["sketch.quantile_ns"] = d
	return out, nil
}
