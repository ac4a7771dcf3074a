// Command perfbench is the repository benchmark: three seeded
// workloads, each run in one process against the in-process system,
// reporting end-to-end metrics (untraced) or per-layer metrics (traced).
// See README.md for the workloads, metrics and layer map; run it through
// run.py, which builds it.
//
//	perfbench --workload relay-flood|connect-churn|ingest-spool|all \
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the run
// record. Exit status 1 means a correctness gate was violated, 2 a
// usage or set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what every workload is built from.
type env struct {
	seed    int64
	gens    int // generator goroutines: nproc at run time
	workdir string
	plant   bool // self-test: plant one output failure in the timed phase
}

// system is one workload's built system under test.
type system interface {
	// warm runs the fixed warm-up that fills caches before timing.
	warm() error
	// drive runs the closed loop until deadline; a non-nil tracer
	// records spans around the benchmark's calls into the system.
	drive(deadline time.Time, tr *tracer) *phase
	// check verifies every output the system produced so far and
	// returns one line per correctness-gate violation.
	check() []string
	// shape reports the sizes the layer replays are shaped by.
	shape() shape
	// units reads the throughput counter: tunnel packets, connects or
	// accepted records so far.
	units() float64
	close()
}

type workload struct {
	name, why string
	build     func(env) (system, error)
	// inputs, when set, generates the workload's seeded inputs ahead of
	// the timed set-ups, so that set-up time does not include them.
	inputs func(seed int64)
	// The workload's names for the four workload-shaped end-to-end
	// metrics, in e2eSpecs order, and for the recorded p99.
	rate, p50, tail, side, p99 alias
}

var workloads = []workload{
	{
		name:  "relay-flood",
		why:   "per-packet path: TUN batch read, peek/decode, ring hand-off, tcpsm data, socket write, write-back",
		build: newFlood,
		rate:  alias{"relay_pkts_per_s", "pkts/s", 0},
		p50:   alias{"echo_p50_ms", "ms", 0.5},
		tail:  alias{"echo_p90_ms", "ms", 0.90},
		side:  alias{"udp_rtt_p50_ms", "ms", 0.5},
		p99:   alias{"echo_p99_ms", "ms", 0.99},
	},
	{
		name:  "connect-churn",
		why:   "SYN path, procnet mapping, DNS relay and per-connection measurement emit on the shipped Workers=1 engine",
		build: newChurn,
		rate:  alias{"connects_per_s", "1/s", 0},
		p50:   alias{"connect_p50_ms", "ms", 0.5},
		tail:  alias{"connect_p75_ms", "ms", 0.75},
		side:  alias{"resolve_p50_ms", "ms", 0.5},
		p99:   alias{"connect_p99_ms", "ms", 0.99},
	},
	{
		name:   "ingest-spool",
		why:    "collector only: wire decode, dedup, sketch update and spool append behind HTTP",
		build:  newIngest,
		inputs: func(seed int64) { paperRecords(seed) },
		rate:   alias{"ingest_records_per_s", "rec/s", 0},
		p50:    alias{"upload_p50_ms", "ms", 0.5},
		tail:   alias{"upload_p75_ms", "ms", 0.75},
		side:   alias{"stats_read_p50_ms", "ms", 0.5},
		p99:    alias{"upload_p99_ms", "ms", 0.99},
	},
}

// setupRepeats is how many times a trace-0 run builds and warms its
// system; setup_s and heap_mb are the medians, and the last build is
// the one timed.
const setupRepeats = 7

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runRecord is everything a result needs to be read later.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Host       host    `json:"host"`
	Generators int     `json:"generators"`
	// Samples is the sample count behind every percentile, by metric.
	Samples     map[string]int `json:"samples"`
	FailedRatio float64        `json:"failed_ratio"`
	// Aliases maps each reported end-to-end metric to this workload's
	// name for it.
	Aliases map[string]string `json:"aliases,omitempty"`
	OpP99MS float64           `json:"op_p99_ms,omitempty"`
	// SideRawP50MS is side_p50_ms before a per-op steal correction,
	// where the workload applies one.
	SideRawP50MS float64   `json:"side_raw_p50_ms,omitempty"`
	SetupRuns    []float64 `json:"setup_runs_s,omitempty"`
	// RawThroughput is units over the timed phase's wall time, with no
	// steal correction; BusySeconds is the mean generator's time in ops
	// that did not fail, where the rate is taken over it. Steal holds the
	// machine's stolen CPU share during set-up, the timed phase, and the
	// busy part of it.
	RawThroughput   float64            `json:"raw_throughput_per_s,omitempty"`
	BusySeconds     float64            `json:"busy_s,omitempty"`
	Steal           map[string]float64 `json:"steal_share,omitempty"`
	TracingOverhead map[string]float64 `json:"tracing_overhead,omitempty"`
	// Probed names the per-layer metrics measured on a probe of another
	// workload, with that workload.
	Probed     map[string]string `json:"probed,omitempty"`
	Violations []string          `json:"violations,omitempty"`
	Errors     []string          `json:"errors,omitempty"`
}

type config struct {
	seed     int64
	seconds  float64
	trace    int
	workdir  string
	commit   string
	manifest string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "relay-flood, connect-churn, ingest-spool, or all")
	var c config
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "scratch directory for spools and traces")
	fs.StringVar(&c.commit, "commit", "unknown", "source revision, recorded with every result")
	fs.StringVar(&c.manifest, "manifest", "BENCHMARK.json", "metric manifest the self-test checks against")
	selftest := fs.Bool("selftest", false, "plant one failure per workload and check that the gates trip")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.seconds <= 0 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *selftest {
		return selfTest(c, stdout, stderr)
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range chosen {
		res, rec, err := runWorkload(w, c, false)
		if err != nil {
			out.Flush()
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		printTable(out, w, res, rec)
		printJSON(out, map[string]runRecord{"run_record": rec})
		if len(chosen) > 1 {
			printJSON(out, res)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(chosen) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	printJSON(out, total)
	if !total.Correct {
		return 1
	}
	return 0
}

func hostInfo(commit string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// build builds and warms one system, returning it with its set-up time.
func build(w workload, e env) (system, float64, error) {
	t0 := time.Now()
	sys, err := w.build(e)
	if err != nil {
		return nil, 0, err
	}
	if err := sys.warm(); err != nil {
		sys.close()
		return nil, 0, err
	}
	return sys, time.Since(t0).Seconds(), nil
}

// outcome is one timed phase with what was checked after it.
type outcome struct {
	ph         *phase
	a, b       procSample
	samples    []sample // CPU tick readings over the phase
	violations []string
	shape      shape
	heapEndMB  float64 // live heap after the phase, system still up
}

func timed(sys system, seconds float64, tr *tracer) outcome {
	u0 := sys.units()
	a := sampleProc()
	sp := startSampler()
	ph := sys.drive(time.Now().Add(time.Duration(seconds*float64(time.Second))), tr)
	samples := sp.finish()
	b := sampleProc()
	ph.units = sys.units() - u0
	checked := sys.check()
	ph.failed += int64(len(checked)) // each failed output check counts as a failed op
	v := append(ph.violations, checked...)
	return outcome{ph: ph, a: a, b: b, samples: samples, violations: v, shape: sys.shape(), heapEndMB: liveHeapMB()}
}

// runWorkload runs one workload in the configured mode.
func runWorkload(w workload, c config, plant bool) (result, runRecord, error) {
	e := env{seed: c.seed, gens: runtime.NumCPU(), workdir: c.workdir, plant: plant}
	rec := runRecord{
		Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Host: hostInfo(c.commit), Generators: e.gens, Samples: map[string]int{},
	}
	if c.trace == 1 {
		return tracedRun(w, c, e, rec)
	}

	var sys system
	var setups, heaps []float64
	if w.inputs != nil {
		w.inputs(c.seed)
	}
	before := sampleProc()
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		base := liveHeapMB()
		s, secs, err := build(w, e)
		if err != nil {
			return result{}, rec, err
		}
		sys = s
		setups = append(setups, secs)
		heaps = append(heaps, liveHeapMB()-base)
	}
	after := sampleProc()
	setupSteal := stealShare(before.ticks, after.ticks)
	o := timed(sys, c.seconds, nil)
	sys.close()

	ph := o.ph
	res := newResult(ph, o.violations)
	rec.Aliases = map[string]string{}
	put := func(name string, v float64, a alias) {
		spec := e2eByName(name)
		res.Metrics[name] = metricValue{finite(v), spec.unit}
		if a.name != "" {
			rec.Aliases[name] = a.name + " [" + a.unit + "]"
		}
	}
	put("throughput_per_s", rate(o), w.rate)
	put("op_p50_ms", ms(quantile(ph.primary, w.p50.q)), w.p50)
	put("op_tail_ms", ms(quantile(ph.primary, w.tail.q)), w.tail)
	put("side_p50_ms", ms(quantile(ph.side, w.side.q)), w.side)
	put("heap_mb", median(heaps), alias{})
	put("setup_s", median(setups)*(1-setupSteal), alias{})
	// p99 is recorded beside the bounded tail: on a shared two-vCPU
	// host it moves with host load more than with the program.
	rec.OpP99MS = ms(quantile(ph.primary, w.p99.q))
	if len(ph.sideRaw) > 0 {
		rec.SideRawP50MS = ms(quantile(ph.sideRaw, w.side.q))
	}
	rec.Samples["op_p50_ms"] = len(ph.primary)
	rec.Samples["op_tail_ms"] = len(ph.primary)
	rec.Samples["op_p99_ms"] = len(ph.primary)
	rec.Samples["side_p50_ms"] = len(ph.side)
	rec.Samples["setup_s"] = len(setups)
	rec.Samples["heap_mb"] = len(heaps)
	rec.SetupRuns = setups
	rec.Steal = map[string]float64{"setup": setupSteal, "timed": stealShare(o.a.ticks, o.b.ticks)}
	if ph.busy > 0 {
		rec.Steal["busy"] = stealUntil(o.samples, ph.busyEnd)
	}
	rec.RawThroughput = ph.units / ph.elapsed.Seconds()
	rec.BusySeconds = ph.busy.Seconds()
	finishRecord(&rec, res, o)
	return res, rec, nil
}

// rate is a phase's throughput corrected for hypervisor steal: units
// over the time the machine's virtual CPUs actually ran. On a shared VM
// the stolen share swings from a few percent to a third of the CPU
// between runs, and the raw rate swings with it. A phase that reports
// busy time (connect-churn, which stalls on the DNS session-cap defect)
// is measured over that instead, with the share stolen until its last op
// that did not fail: the stall is a timer wait whose length is the
// resolver timeout, not the program's speed.
func rate(o outcome) float64 {
	if o.ph.busy > 0 {
		return o.ph.units / (o.ph.busy.Seconds() * (1 - stealUntil(o.samples, o.ph.busyEnd)))
	}
	return o.ph.units / (o.ph.elapsed.Seconds() * (1 - stealShare(o.a.ticks, o.b.ticks)))
}

func newResult(ph *phase, violations []string) result {
	return result{
		Correct:   len(violations) == 0,
		Attempted: max(ph.attempted, 1),
		Failed:    ph.failed,
		Metrics:   map[string]metricValue{},
	}
}

func finishRecord(rec *runRecord, res result, o outcome) {
	rec.FailedRatio = ratio(float64(res.Failed), float64(res.Attempted))
	rec.Violations = append(rec.Violations, o.violations...)
	rec.Errors = append(rec.Errors, o.ph.errs...)
}

// probeSeconds is how long a traced run drives each other workload to
// measure the layers its own workload does not exercise.
const probeSeconds = 0.5

// runPhase builds and warms one system, runs one timed phase on it, and
// tears it down.
func runPhase(w workload, e env, seconds float64, tr *tracer) (outcome, error) {
	sys, _, err := build(w, e)
	if err != nil {
		return outcome{}, err
	}
	defer sys.close()
	return timed(sys, seconds, tr), nil
}

// phaseLayers collects a traced phase's per-layer metrics: Stats deltas,
// span summaries, runtime cost and the end-of-phase heap. Only layers
// the phase exercised get a value.
func phaseLayers(o outcome, spans []span, gens int, samples map[string]int) map[string]float64 {
	layers := o.ph.layers
	spanLayers(spans, layers, samples)
	runtimeLayers(o.a, o.b, o.ph.attempted, gens, layers)
	layers["runtime.heap_end_mb"] = o.heapEndMB
	return layers
}

// tracedRun runs the workload untraced and then traced, each on its own
// freshly built system for half the time, and reports the per-layer
// metrics of the traced phase plus the tracing overhead. Layers the
// workload does not exercise (the collector on a phone workload, the
// phone on ingest-spool, resolves on relay-flood, UDP echoes on
// connect-churn) are measured by a short traced probe of the workload
// that does, and the run record names each such metric.
func tracedRun(w workload, c config, e env, rec runRecord) (result, runRecord, error) {
	half := c.seconds / 2
	plain, err := runPhase(w, e, half, nil)
	if err != nil {
		return result{}, rec, err
	}
	tr := newTracer()
	traced, err := runPhase(w, e, half, tr)
	if err != nil {
		return result{}, rec, err
	}
	spans := tr.all()
	if err := writeSpans(filepath.Join(c.workdir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return result{}, rec, err
	}
	layers := phaseLayers(traced, spans, e.gens, rec.Samples)
	rl, err := replays(traced.shape, c.seed, c.workdir)
	if err != nil {
		return result{}, rec, fmt.Errorf("layer replays: %w", err)
	}
	for k, v := range rl {
		layers[k] = v
	}

	outs := []outcome{plain, traced}
	rec.Probed = map[string]string{}
	for _, other := range workloads {
		if other.name == w.name || !missingLayer(layers) {
			continue
		}
		ptr := newTracer()
		p, err := runPhase(other, e, probeSeconds, ptr)
		if err != nil {
			return result{}, rec, fmt.Errorf("probe %s: %w", other.name, err)
		}
		outs = append(outs, p)
		for k, v := range phaseLayers(p, ptr.all(), e.gens, map[string]int{}) {
			if _, ok := layers[k]; !ok {
				layers[k] = v
				rec.Probed[k] = other.name
			}
		}
	}
	layers["engine.echo_wait_us"] = echoWaitUS(layers)

	p50 := func(o outcome) float64 { return ms(quantile(o.ph.primary, 0.5)) }
	layers["trace.overhead_rate_pct"] = 100 * (1 - ratio(rate(traced), rate(plain)))
	layers["trace.overhead_p50_pct"] = 100 * (ratio(p50(traced), p50(plain)) - 1)
	rec.TracingOverhead = map[string]float64{
		"untraced_throughput_per_s": rate(plain), "traced_throughput_per_s": rate(traced),
		"untraced_op_p50_ms": p50(plain), "traced_op_p50_ms": p50(traced),
		"rate_pct": layers["trace.overhead_rate_pct"], "p50_pct": layers["trace.overhead_p50_pct"],
	}

	all := &phase{}
	var violations []string
	for _, o := range outs {
		all.attempted += o.ph.attempted
		all.failed += o.ph.failed
		all.errs = append(all.errs, o.ph.errs...)
		violations = append(violations, o.violations...)
	}
	res := newResult(all, violations)
	for _, s := range layerSpecs {
		res.Metrics[s.name] = metricValue{finite(layers[s.name]), s.unit}
	}
	finishRecord(&rec, res, outcome{ph: all, violations: violations})
	return res, rec, nil
}

// missingLayer reports whether a per-layer metric has no value yet (the
// echo wait and the tracing overhead are derived last).
func missingLayer(layers map[string]float64) bool {
	for _, s := range layerSpecs {
		if _, ok := layers[s.name]; !ok && s.name != "engine.echo_wait_us" && !strings.HasPrefix(s.name, "trace.") {
			return true
		}
	}
	return false
}

// echoWaitUS is the echo median minus the replayed per-packet CPU of one
// echo's request and reply (peek, decode, encode, flow lookup, tcpsm data
// step, select): the time an echo spends waiting rather than computing,
// chiefly the TunWriter's write-back poll.
func echoWaitUS(l map[string]float64) float64 {
	cpuNS := l["packet.peek_ns"] + l["packet.decode_ns"] + l["packet.encode_ns"] +
		l["flowtable.get_ns"] + l["tcpsm.data_step_ns"] + l["sockets.select_ns"]
	return l["phonestack.echo_p50_us"] - cpuNS/1e3
}

// spanLayers summarises the traced spans into per-layer metrics; a
// span name with no samples sets nothing.
func spanLayers(spans []span, into map[string]float64, samples map[string]int) {
	put := func(name string, ds []time.Duration, q float64, key string) {
		samples[name] = len(ds)
		if len(ds) > 0 {
			into[key] = us(quantile(ds, q))
		}
	}
	for _, op := range []string{"connect", "echo", "resolve", "udp_rtt"} {
		ds := durations(spans, "phonestack."+op)
		put("phonestack."+op, ds, 0.5, "phonestack."+op+"_p50_us")
		put("phonestack."+op, ds, 0.99, "phonestack."+op+"_p99_us")
	}
	if v, ok := into["phonestack.connect_p99_us"]; ok {
		into["phonestack.connect_p99_ms"] = v / 1000
	}
	serve := durations(spans, "crowd.serve")
	put("crowd.serve", serve, 0.5, "crowd.serve_p50_us")
	put("crowd.serve", serve, 0.99, "crowd.serve_p99_us")
	put("crowd.stats", durations(spans, "crowd.stats"), 0.5, "crowd.stats_us")
	put("transport.http", selfTimes(spans, "transport.http"), 0.5, "transport.http_self_us")
}

func e2eByName(name string) e2eSpec {
	for _, s := range e2eSpecs {
		if s.name == name {
			return s
		}
	}
	panic("perfbench: no end-to-end metric " + name)
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every printed value is a plain struct of numbers and strings
	}
	fmt.Fprintf(w, "%s\n", b)
}

// printTable renders a run for people: every metric by name and unit,
// end-to-end metrics under the workload's own names, per-layer metrics
// with the end-to-end metric they feed.
func printTable(w io.Writer, wl workload, res result, rec runRecord) {
	h := rec.Host
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%d generators=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n   cpu: %s\n   why: %s\n",
		wl.name, rec.Seed, rec.Seconds, rec.Trace, rec.Generators, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.CPUModel, wl.why)
	if rec.Trace == 0 {
		rows := []struct {
			key string
			a   alias
		}{{"throughput_per_s", wl.rate}, {"op_p50_ms", wl.p50}, {"op_tail_ms", wl.tail}, {"side_p50_ms", wl.side},
			{"setup_s", alias{"setup_s", "s", 0}}, {"heap_mb", alias{"heap_mb", "MB", 0}}}
		for _, r := range rows {
			m := res.Metrics[r.key]
			n := ""
			if c, ok := rec.Samples[r.key]; ok {
				n = fmt.Sprintf("n=%d", c)
			}
			fmt.Fprintf(w, "   %-22s %14.4f %-7s %-18s %s\n", r.a.name, m.Value, r.a.unit, "("+r.key+")", n)
		}
		fmt.Fprintf(w, "   %-22s %14.4f %-7s %-18s n=%d\n", wl.p99.name, rec.OpP99MS, wl.p99.unit, "(recorded)", rec.Samples["op_p99_ms"])
		if rec.SideRawP50MS > 0 {
			fmt.Fprintf(w, "   %-22s %14.4f %-7s (before the per-read steal correction)\n", "raw "+wl.side.name, rec.SideRawP50MS, wl.side.unit)
		}
		fmt.Fprintf(w, "   %-22s %14.4f %-7s (units over wall time, uncorrected; stolen CPU share %.3f timed, %.3f set-up)\n",
			"raw "+wl.rate.name, rec.RawThroughput, wl.rate.unit, rec.Steal["timed"], rec.Steal["setup"])
		if rec.BusySeconds > 0 {
			fmt.Fprintf(w, "   %-22s %14.4f %-7s (mean generator time in ops that did not fail, the rate's denominator; stolen share %.3f)\n",
				"busy", rec.BusySeconds, "s", rec.Steal["busy"])
		}
		fmt.Fprintf(w, "   %-22s %14.6f %-7s (%d of %d ops)\n", "failed_ratio", rec.FailedRatio, "ratio", res.Failed, res.Attempted)
	} else {
		for _, s := range layerSpecs {
			probe := ""
			if p, ok := rec.Probed[s.name]; ok {
				probe = "  [probe: " + p + "]"
			}
			fmt.Fprintf(w, "   %-32s %14.4f %-6s -> %s%s\n", s.name, res.Metrics[s.name].Value, s.unit, s.feeds, probe)
		}
		keys := make([]string, 0, len(rec.TracingOverhead))
		for k := range rec.TracingOverhead {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "   tracing overhead:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%.4g", k, rec.TracingOverhead[k])
		}
		fmt.Fprintln(w)
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(w, "   VIOLATION:", v)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "   failed op:", e)
	}
}

// manifest is the part of BENCHMARK.json the self-test checks.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// checkManifest reports every difference between BENCHMARK.json and the
// metric catalogue.
func checkManifest(path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		return []string{err.Error()}
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return []string{path + ": " + err.Error()}
	}
	var bad []string
	if len(m.Workloads) != len(workloads) {
		bad = append(bad, fmt.Sprintf("%s lists %d workloads, the benchmark runs %d", path, len(m.Workloads), len(workloads)))
	}
	for i := range min(len(m.Workloads), len(workloads)) {
		if m.Workloads[i].Name != workloads[i].name {
			bad = append(bad, fmt.Sprintf("workload %d: manifest %q, benchmark %q", i, m.Workloads[i].Name, workloads[i].name))
		}
	}
	if len(m.EndToEnd) != len(e2eSpecs) {
		bad = append(bad, fmt.Sprintf("%s lists %d end-to-end metrics, the benchmark reports %d", path, len(m.EndToEnd), len(e2eSpecs)))
	}
	for i := range min(len(m.EndToEnd), len(e2eSpecs)) {
		got, want := m.EndToEnd[i], e2eSpecs[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			bad = append(bad, fmt.Sprintf("end-to-end %d: manifest %v, benchmark %v", i, got, want))
		}
	}
	if len(m.PerLayer) != len(layerSpecs) {
		bad = append(bad, fmt.Sprintf("%s lists %d per-layer metrics, the benchmark reports %d", path, len(m.PerLayer), len(layerSpecs)))
	}
	for i := range min(len(m.PerLayer), len(layerSpecs)) {
		got, want := m.PerLayer[i], layerSpecs[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			bad = append(bad, fmt.Sprintf("per-layer %d: manifest %v, benchmark %v", i, got, want))
		}
	}
	return bad
}

// selfTest checks the manifest, then runs every workload briefly with
// one planted output failure and checks that its gate trips.
func selfTest(c config, stdout, stderr io.Writer) int {
	var problems []string
	problems = append(problems, checkManifest(c.manifest)...)
	c.seconds, c.trace = 0.5, 0
	for _, w := range workloads {
		res, rec, err := runWorkload(w, c, true)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: %v", w.name, err))
		case res.Correct || res.Failed == 0:
			problems = append(problems, fmt.Sprintf("%s: planted failure did not trip a gate (failed=%d)", w.name, res.Failed))
		default:
			fmt.Fprintf(stdout, "selftest %s: planted failure tripped: %s\n", w.name, rec.Violations[0])
		}
	}
	if len(problems) > 0 {
		fmt.Fprintln(stderr, "selftest FAILED:\n  "+strings.Join(problems, "\n  "))
		return 1
	}
	fmt.Fprintln(stdout, "selftest ok")
	return 0
}
