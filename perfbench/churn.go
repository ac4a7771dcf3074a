package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// connect-churn: the SYN path, mapping, the DNS relay and the
// per-connection measurement emit, on the paper-faithful shipped
// engine. Each op resolves its server's domain (no app-side cache),
// connects, echoes 64 B once and closes; ops rotate across apps and
// servers.
//
// Known defect, surfaced rather than sized around: every resolve opens
// a fresh UDP port whose NAT session lives for the engine's full idle
// time (a minute), so once maxUDPSessions (4096) resolves have run
// within that minute the next resolve is dropped and the app waits out
// its 10 s resolver timeout. Those ops count as failed, and the
// throughput is taken over the generators' time in ops that did not
// fail, so the stall's timer wait does not set it.

const (
	churnApps     = 32
	churnServers  = 8
	churnPayload  = 64
	churnWarmOps  = 64 // per generator
	churnResolveT = 10 * time.Second
)

type churn struct {
	env      env
	bed      *testbed.Bed
	specs    []netsim.ServerSpec
	payload  []byte
	connects atomic.Int64
	resolves atomic.Int64
	maxLive  atomic.Int64
	live     shape
	plant    atomic.Bool // self-test: corrupt one compared echo
}

func newChurn(e env) (system, error) {
	specs := echoServers("churn", churnServers)
	bed, err := loopbackPhone(engine.Default(), e.seed, specs)
	if err != nil {
		return nil, err
	}
	c := &churn{env: e, bed: bed, specs: specs, payload: make([]byte, churnPayload)}
	for i := 0; i < churnApps; i++ {
		bed.InstallApp(churnUID(i), fmt.Sprintf("churn.app%02d", i))
	}
	rand.New(rand.NewSource(e.seed)).Read(c.payload)
	return c, nil
}

func churnUID(app int) int { return 30001 + app }

func (c *churn) warm() error {
	return warmErr("connect-churn", c.run(func(n int) bool { return n >= churnWarmOps }, nil))
}

func (c *churn) drive(deadline time.Time, tr *tracer) *phase {
	c.plant.Store(c.env.plant)
	a := snapPhone(c.bed)
	start := time.Now()
	gens := c.run(func(int) bool { return !time.Now().Before(deadline) }, tr)
	p := &phase{elapsed: time.Since(start)}
	b := snapPhone(c.bed)
	mergeGens(p, gens)
	p.layers = map[string]float64{}
	phoneLayers(a, b, p.layers)
	c.live = shape{
		liveFlows:   int(c.maxLive.Load()) + c.bed.Eng.ActiveUDPSessions(),
		liveSockets: int(c.maxLive.Load()),
	}
	return p
}

// run runs one op loop per generator until stop reports true for the
// generator's op count. Generator g runs ops g, g+gens, g+2·gens, …, so
// the apps and servers they rotate through never depend on timing.
func (c *churn) run(stop func(n int) bool, tr *tracer) []*genResult {
	return fanOut(c.env.gens, func(g int, r *genResult) {
		sb := tr.buf(false)
		buf := make([]byte, churnPayload)
		for n := 0; !stop(n); n++ {
			t0, failed := time.Now(), r.failed
			c.op(g+n*c.env.gens, buf, r, sb)
			if r.failed == failed {
				r.lastOK = time.Now()
				r.busy += r.lastOK.Sub(t0)
			}
			if n%32 == 0 {
				c.noteLive()
			}
		}
	})
}

// noteLive tracks the most sockets the proc table held at once, the
// size the procnet replay parses.
func (c *churn) noteLive() {
	n := int64(c.bed.Table.Len())
	for {
		old := c.maxLive.Load()
		if n <= old || c.maxLive.CompareAndSwap(old, n) {
			return
		}
	}
}

func (c *churn) op(k int, buf []byte, r *genResult, sb *spanBuf) {
	r.attempted++
	uid := churnUID(k % churnApps)
	srv := c.specs[k%churnServers]

	t0 := time.Now()
	res, err := c.bed.Phone.Resolve(uid, testbed.DNSAddr, srv.Domain, churnResolveT)
	t1 := time.Now()
	sb.add(0, 0, "phonestack.resolve", t0, t1)
	if err != nil {
		r.fail("resolve "+srv.Domain, err)
		return
	}
	c.resolves.Add(1)
	r.side = append(r.side, t1.Sub(t0))
	dst := netip.AddrPortFrom(res.Addr, srv.Addr.Port())
	if dst != srv.Addr {
		r.violate("connect-churn: %s resolved to %v, want %v", srv.Domain, res.Addr, srv.Addr.Addr())
		return
	}

	t0 = time.Now()
	conn, err := c.bed.Phone.Connect(uid, dst, 15*time.Second)
	t1 = time.Now()
	sb.add(0, 0, "phonestack.connect", t0, t1)
	if err != nil {
		r.fail("connect", err)
		return
	}
	c.connects.Add(1)
	r.primary = append(r.primary, t1.Sub(t0))
	defer conn.Close()

	t0 = time.Now()
	_, err = conn.Write(c.payload)
	if err == nil {
		err = conn.ReadFull(buf)
	}
	sb.add(0, 0, "phonestack.echo", t0, time.Now())
	if err != nil {
		r.fail("echo", err)
		return
	}
	if c.plant.CompareAndSwap(true, false) {
		buf[0] ^= 0xff
	}
	if !bytes.Equal(buf, c.payload) {
		r.violate("connect-churn: op %d echo came back different from what was sent", k)
	}
}

func (c *churn) check() []string {
	return phoneGates(c.bed, c.connects.Load(), c.resolves.Load())
}

func (c *churn) shape() shape { return c.live }

func (c *churn) units() float64 { return float64(c.connects.Load()) }

func (c *churn) close() { c.bed.Close() }
