package engine

import (
	"errors"
	"time"

	"repro/internal/packet"
	"repro/internal/tun"
)

// adaptiveBurstPolls is how many empty polls after activity keep the
// short poll interval before the reader backs off to the configured
// sleep — ToyVpn's "intelligent sleeping" burst window. Config.PollBurst
// overrides it.
const adaptiveBurstPolls = 8

// adaptiveShortPoll is the burst-phase poll interval.
const adaptiveShortPoll = time.Millisecond

// pollPolicy implements the ReadPollAdaptive sleep schedule (§3.1):
// while packets are arriving, empty polls sleep only the short
// interval so a burst is drained with low latency; once the burst
// budget is spent without a successful read, the poller backs off to
// the long interval to stop burning wakeups on an idle tunnel. Any
// successful read refills the budget.
type pollPolicy struct {
	short    time.Duration
	long     time.Duration
	burstMax int
	burst    int
}

func newPollPolicy(short, long time.Duration, burstMax int) *pollPolicy {
	if burstMax < 0 {
		burstMax = 0
	}
	return &pollPolicy{short: short, long: long, burstMax: burstMax}
}

// onSuccess records a successful read: the tunnel is active, so refill
// the burst budget. With no burst window configured (burstMax == 0)
// there is nothing to refill — the policy is a fixed long-interval
// poller.
func (p *pollPolicy) onSuccess() {
	if p.burstMax > 0 {
		p.burst = p.burstMax
	}
}

// onEmpty records an empty poll and returns how long to sleep before
// the next one. The burstMax == 0 guard matters: without it a stale
// positive budget (possible when the burst window is reconfigured to
// zero) would never decay past the `burst > 0` branch's refills and the
// poller would spin at the short interval forever; a zero budget must
// always degrade to plain long-interval polling.
func (p *pollPolicy) onEmpty() time.Duration {
	if p.burstMax <= 0 {
		p.burst = 0
		return p.long
	}
	if p.burst > 0 {
		p.burst--
		return p.short
	}
	return p.long
}

// pollBurst resolves Config.PollBurst: zero selects the ToyVpn default,
// negative disables the burst window entirely.
func (e *Engine) pollBurst() int {
	switch {
	case e.cfg.PollBurst == 0:
		return adaptiveBurstPolls
	case e.cfg.PollBurst < 0:
		return 0
	default:
		return e.cfg.PollBurst
	}
}

// readSleep resolves the configured poll interval.
func (e *Engine) readSleep() time.Duration {
	if e.cfg.PollInterval > 0 {
		return e.cfg.PollInterval
	}
	return 100 * time.Millisecond
}

// tunReader is the dedicated tunnel read thread (§3.1). In blocking
// mode each read parks until a packet arrives: zero retrieval delay and
// zero empty wakeups. In poll modes it mirrors ToyVpn: non-blocking
// reads with sleeps between failures, and in adaptive mode the
// burst-then-back-off schedule of pollPolicy. This is the paper's
// per-packet loop, used whenever the engine runs single-worker; the
// multi-worker pipeline runs tunReaderBatched instead.
func (e *Engine) tunReader() {
	defer e.wg.Done()
	sleeping := e.readSleep()
	policy := newPollPolicy(adaptiveShortPoll, sleeping, e.pollBurst())
	sel := e.sels[0]
	for e.isRunning() {
		raw, err := e.dev.Read()
		switch {
		case err == nil:
			// A successful read loops again immediately: bursts are
			// drained without sleeping at all.
			policy.onSuccess()
			e.readQ.push(raw)
			sel.Wakeup()
		case errors.Is(err, tun.ErrWouldBlock):
			e.meter.AddWakeups(1)
			switch e.cfg.ReadMode {
			case ReadPollAdaptive:
				e.clk.Sleep(policy.onEmpty())
			default:
				e.clk.Sleep(sleeping)
			}
		case errors.Is(err, tun.ErrClosed):
			return
		default:
			return
		}
	}
}

// tunReaderBatched is the multi-worker tunnel read thread: it retrieves
// packets in bursts of up to the governed burst limit (tun.ReadBatch
// pays the queue lock once per burst), peeks each packet's flow key
// straight out of the header bytes (packet.PeekFlowKey — no decode, no
// allocation), and scatters the burst into the per-worker SPSC rings.
// Routing on the reader removes any shared queue from the packet hot
// path. The burst limit is pinned at Config.ReadBatch, or self-tuned by
// the AIMD governor (readbatch.go) under ReadBatchAuto; either way the
// live limit is published to the ReadBatchLimit gauge. The read-mode
// schedule (§3.1) is unchanged, applied per burst.
func (e *Engine) tunReaderBatched() {
	defer e.wg.Done()
	// The reader is the rings' only producer, so it closes them: after
	// this, each worker drains its ring and exits.
	defer func() {
		for _, w := range e.workers {
			w.q.close()
		}
	}()
	sleeping := e.readSleep()
	policy := newPollPolicy(adaptiveShortPoll, sleeping, e.pollBurst())
	gov := newBurstGovernor(e.cfg)
	batch := make([][]byte, gov.ceil)
	touched := make([]bool, len(e.workers))
	e.ctr.readBatchLimit.Store(int64(gov.limit()))
	for e.isRunning() {
		n, err := e.dev.ReadBatch(batch[:gov.limit()])
		switch {
		case err == nil:
			policy.onSuccess()
			e.scatter(batch[:n], touched)
			if gov.observe(n); int64(gov.limit()) != e.ctr.readBatchLimit.Load() {
				e.ctr.readBatchLimit.Store(int64(gov.limit()))
			}
		case errors.Is(err, tun.ErrWouldBlock):
			e.meter.AddWakeups(1)
			switch e.cfg.ReadMode {
			case ReadPollAdaptive:
				e.clk.Sleep(policy.onEmpty())
			default:
				e.clk.Sleep(sleeping)
			}
		case errors.Is(err, tun.ErrClosed):
			return
		default:
			return
		}
	}
}

// scatter routes one burst of raw tunnel packets to their pinned
// workers. PeekFlowKey applies exactly Decode's structural validation,
// so a packet rejected here (counted as a decode error) is one the
// worker would have rejected anyway. The workers that received packets
// are woken once each, after the whole burst is ringed — the per-burst
// amortisation of the per-packet Wakeup the single-worker reader pays
// (§3.2).
func (e *Engine) scatter(burst [][]byte, touched []bool) {
	for i, raw := range burst {
		burst[i] = nil // the ring owns the reference now
		key, err := packet.PeekFlowKey(raw)
		if err != nil {
			e.ctr.decodeErrors.Add(1)
			continue
		}
		shard := e.flows.Shard(key) % len(e.workers)
		e.workers[shard].q.pushPacket(raw)
		touched[shard] = true
	}
	e.ctr.readBatches.Add(1)
	e.ctr.batchedPackets.Add(int64(len(burst)))
	for i, t := range touched {
		if t {
			touched[i] = false
			e.workers[i].sel.Wakeup()
		}
	}
}
