package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/phonestack"
	"repro/internal/testbed"
)

// relay-flood: the per-packet path. Each generator is one client that
// holds one long-lived TCP flow at a time carrying 1200 B echoes, plus
// one long-lived UDP socket exchanging 64 B datagrams with a loopback
// echo service; flows rotate across the apps.

const (
	floodApps       = 8
	floodPayload    = 1200
	floodUDPPayload = 64
	floodUDPEvery   = 8    // one UDP round trip per this many echoes
	floodFlowEchoes = 1024 // echoes before a client rotates to its next flow
	floodWarmEchoes = 256
)

var floodUDPEcho = netip.MustParseAddrPort("203.0.113.200:7777")

type flood struct {
	env      env
	bed      *testbed.Bed
	servers  []netip.AddrPort
	payloads [][]byte // one per generator, seeded
	connects atomic.Int64
	live     shape
	plant    atomic.Bool // self-test: corrupt one compared echo
}

func newFlood(e env) (system, error) {
	specs := echoServers("flood", floodApps)
	cfg := engine.Default()
	cfg.Workers = e.gens
	bed, err := loopbackPhone(cfg, e.seed, specs)
	if err != nil {
		return nil, err
	}
	f := &flood{env: e, bed: bed}
	for i, s := range specs {
		f.servers = append(f.servers, s.Addr)
		bed.InstallApp(floodUID(i), fmt.Sprintf("flood.app%d", i))
	}
	bed.Net.HandleUDP(floodUDPEcho, 0, func(req []byte, _ netip.AddrPort) []byte { return req })
	rng := rand.New(rand.NewSource(e.seed))
	for g := 0; g < e.gens; g++ {
		p := make([]byte, floodPayload)
		rng.Read(p)
		f.payloads = append(f.payloads, p)
	}
	return f, nil
}

func floodUID(app int) int { return 20001 + app }

func (f *flood) warm() error {
	return warmErr("relay-flood", f.clients(func(n int) bool { return n >= floodWarmEchoes }, nil))
}

func (f *flood) drive(deadline time.Time, tr *tracer) *phase {
	f.plant.Store(f.env.plant)
	a := snapPhone(f.bed)
	start := time.Now()
	gens := f.clients(func(int) bool { return !time.Now().Before(deadline) }, tr)
	p := &phase{elapsed: time.Since(start)}
	b := snapPhone(f.bed)
	f.live = shape{
		liveFlows:   f.bed.Eng.ActiveClients() + f.bed.Eng.ActiveUDPSessions(),
		liveSockets: f.bed.Table.Len(),
	}
	mergeGens(p, gens)
	p.layers = map[string]float64{}
	phoneLayers(a, b, p.layers)
	return p
}

// clients runs one client per generator until stop reports true for
// the client's op count, and returns their tallies.
func (f *flood) clients(stop func(n int) bool, tr *tracer) []*genResult {
	return fanOut(f.env.gens, func(g int, r *genResult) { f.client(g, stop, r, tr.buf(false)) })
}

func (f *flood) client(g int, stop func(int) bool, r *genResult, sb *spanBuf) {
	p := f.payloads[g]
	buf := make([]byte, len(p))
	app := g % floodApps
	u, err := f.bed.Phone.OpenUDP(floodUID(app))
	if err != nil {
		r.fail("udp open", err)
		return
	}
	defer u.Close()
	var conn *phonestack.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	echoes := 0
	for n := 0; !stop(n); n++ {
		if conn == nil || echoes == floodFlowEchoes {
			if conn != nil {
				conn.Close()
				app = (app + f.env.gens) % floodApps
			}
			r.attempted++
			t0 := time.Now()
			conn, err = f.bed.Phone.Connect(floodUID(app), f.servers[app], 15*time.Second)
			sb.add(0, 0, "phonestack.connect", t0, time.Now())
			if err != nil {
				r.fail("connect", err)
				conn = nil
				continue
			}
			f.connects.Add(1)
			echoes = 0
		}

		// One echo: the op stamps its sequence number into the payload so
		// a stale or misrouted echo cannot pass the comparison.
		r.attempted++
		binary.BigEndian.PutUint64(p, uint64(n))
		t0 := time.Now()
		_, err := conn.Write(p)
		if err == nil {
			err = conn.ReadFull(buf)
		}
		t1 := time.Now()
		sb.add(0, 0, "phonestack.echo", t0, t1)
		if err != nil {
			r.fail("echo", err)
			conn.Close()
			conn = nil
			continue
		}
		if f.plant.CompareAndSwap(true, false) {
			buf[len(buf)-1] ^= 0xff
		}
		if !bytes.Equal(buf, p) {
			r.violate("relay-flood: echo %d of client %d came back different from what was sent", n, g)
		} else {
			r.primary = append(r.primary, t1.Sub(t0))
		}
		echoes++

		if n%floodUDPEvery == floodUDPEvery-1 {
			r.attempted++
			d := p[:floodUDPPayload]
			t0 := time.Now()
			err := u.SendTo(floodUDPEcho, d)
			var resp []byte
			if err == nil {
				resp, _, err = u.Recv(2 * time.Second)
			}
			t1 := time.Now()
			sb.add(0, 0, "phonestack.udp_rtt", t0, t1)
			switch {
			case err != nil:
				r.fail("udp echo", err)
			case !bytes.Equal(resp, d):
				r.violate("relay-flood: UDP echo %d of client %d came back different from what was sent", n, g)
			default:
				r.side = append(r.side, t1.Sub(t0))
			}
		}
	}
}

func (f *flood) check() []string { return phoneGates(f.bed, f.connects.Load(), 0) }

func (f *flood) shape() shape { return f.live }

func (f *flood) units() float64 {
	st := f.bed.Eng.Stats()
	return float64(st.PacketsFromTun + st.PacketsToTun)
}

func (f *flood) close() { f.bed.Close() }
