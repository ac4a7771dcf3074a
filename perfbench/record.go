package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase is what one timed closed loop produced.
type phase struct {
	elapsed time.Duration
	// busy, when set, is the mean generator's time in ops that did not
	// fail, and busyEnd the end of the last such op; the throughput of a
	// phase that reports it is taken over it instead of the wall time
	// (see rate).
	busy    time.Duration
	busyEnd time.Time
	// units is the throughput numerator: tunnel packets, connects, or
	// accepted records.
	units float64
	// primary and side are per-op latencies as the caller saw them;
	// sideRaw, where set, is side before a per-op steal correction.
	primary, side, sideRaw []time.Duration
	attempted              int64
	failed                 int64
	// violations are output mismatches seen inside the loop; errs
	// samples the errors behind failed ops.
	violations, errs []string
	// layers holds the per-layer metrics the system measured for this
	// phase (Stats deltas and span summaries).
	layers map[string]float64
}

// genResult is one generator goroutine's private tally, merged into the
// phase after the loop so the hot loop shares nothing.
type genResult struct {
	primary, side, sideRaw []time.Duration
	busy                   time.Duration // time in ops that did not fail, where tracked
	lastOK                 time.Time     // end of the last op that did not fail
	attempted              int64
	failed                 int64
	violations             []string
	errs                   []string
}

// fail counts an op the system refused or errored on. It counts toward
// failed_ratio but is not a correctness-gate violation.
func (g *genResult) fail(op string, err error) {
	g.failed++
	if len(g.errs) < 4 {
		g.errs = append(g.errs, op+": "+err.Error())
	}
}

// violate counts an op whose output was wrong: a failed op and a gate
// violation.
func (g *genResult) violate(format string, args ...any) {
	g.failed++
	if len(g.violations) < 8 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

// fanOut runs f on n generator goroutines, each with its own tally, and
// waits for all of them.
func fanOut(n int, f func(g int, r *genResult)) []*genResult {
	gens := make([]*genResult, n)
	var wg sync.WaitGroup
	for g := range gens {
		gens[g] = &genResult{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f(g, gens[g])
		}(g)
	}
	wg.Wait()
	return gens
}

// warmErr turns any failed warm-up op into a set-up error.
func warmErr(workload string, gens []*genResult) error {
	for _, g := range gens {
		if g.failed > 0 {
			return fmt.Errorf("%s warm-up: %d failed ops: %v %v", workload, g.failed, g.errs, g.violations)
		}
	}
	return nil
}

func mergeGens(p *phase, gens []*genResult) {
	for _, g := range gens {
		p.busy += g.busy / time.Duration(len(gens))
		if g.lastOK.After(p.busyEnd) {
			p.busyEnd = g.lastOK
		}
		p.primary = append(p.primary, g.primary...)
		p.side = append(p.side, g.side...)
		p.sideRaw = append(p.sideRaw, g.sideRaw...)
		p.attempted += g.attempted
		p.failed += g.failed
		p.violations = append(p.violations, g.violations...)
		p.errs = append(p.errs, g.errs...)
	}
}

// quantile returns the nearest-rank q-quantile of ds (sorting ds), 0
// when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one traced call: a layer boundary crossed by the benchmark.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so untraced loops pay one nil check per call.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's span log; shared bufs (server handlers)
// lock.
type spanBuf struct {
	tr     *tracer
	shared bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) buf(shared bool) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t, shared: shared}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// newID reserves a span id before the span is recorded, so a child on
// another goroutine can name its parent.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// newID reserves a span id on the buffer's tracer; 0 when untraced.
func (b *spanBuf) newID() int64 {
	if b == nil {
		return 0
	}
	return b.tr.newID()
}

// add records a finished span; id 0 draws a fresh id.
func (b *spanBuf) add(id, parent int64, name string, start, end time.Time) {
	if b == nil {
		return
	}
	if id == 0 {
		id = b.tr.newID()
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(b.tr.t0)), End: int64(end.Sub(b.tr.t0))}
	if b.shared {
		b.mu.Lock()
		b.spans = append(b.spans, s)
		b.mu.Unlock()
		return
	}
	b.spans = append(b.spans, s)
}

// all returns every span recorded so far.
func (t *tracer) all() []span {
	var out []span
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// durations returns the durations of the spans with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for each span named parent, its duration minus the
// part its direct children cover (children never overlap: each parent
// carries one request at a time).
func selfTimes(spans []span, parent string) []time.Duration {
	child := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == parent {
			out = append(out, s.dur()-child[s.ID])
		}
	}
	return out
}

// writeSpans writes the trace as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSample is the process-wide runtime and CPU state at one instant.
type procSample struct {
	at      time.Time
	ticks   cpuTicks
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure reads as idle
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{
		at: time.Now(), ticks: readTicks(), cpu: cpu, mallocs: m.Mallocs, bytes: m.TotalAlloc,
		numGC: m.NumGC, pauseNs: m.PauseTotalNs,
	}
}

// cpuTicks is the machine-wide CPU time split from /proc/stat: time the
// hypervisor gave this machine's virtual CPUs to other guests (steal),
// and all accounted time.
type cpuTicks struct{ steal, total uint64 }

// readTicks reads /proc/stat's aggregate line; zero where it is absent.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(f[8], 10, 64) // parsed just above
	return t
}

// stealShare is the share of the machine's CPU time stolen between two
// readings; 0 when unknown.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sample is one reading of the machine's CPU ticks.
type sample struct {
	at    time.Time
	ticks cpuTicks
}

// sampleEvery is the sampler's period.
const sampleEvery = 100 * time.Millisecond

// sampler reads /proc/stat every sampleEvery while a phase runs, so the
// stolen share can be taken over part of the phase afterwards.
type sampler struct {
	stop, done chan struct{}
	s          []sample
}

func startSampler() *sampler {
	sp := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	sp.read()
	go func() {
		defer close(sp.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case <-tick.C:
				sp.read()
			}
		}
	}()
	return sp
}

func (sp *sampler) read() { sp.s = append(sp.s, sample{at: time.Now(), ticks: readTicks()}) }

// finish stops the sampler and returns its readings, the last taken now.
func (sp *sampler) finish() []sample {
	close(sp.stop)
	<-sp.done
	sp.read()
	return sp.s
}

// stealUntil is the stolen share from the first reading to the first
// at or after end.
func stealUntil(s []sample, end time.Time) float64 {
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(end) })
	return stealShare(s[0].ticks, s[min(i, len(s)-1)].ticks)
}

// runtimeLayers prices the phase in allocations, GC and CPU.
func runtimeLayers(a, b procSample, ops int64, nproc int, into map[string]float64) {
	into["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), float64(ops))
	into["runtime.alloc_bytes_per_op"] = ratio(float64(b.bytes-a.bytes), float64(ops))
	into["runtime.gc_cycles"] = float64(b.numGC - a.numGC)
	into["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	wall := b.at.Sub(a.at)
	into["runtime.cpu_util"] = ratio(float64(b.cpu-a.cpu), float64(wall)*float64(nproc))
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
