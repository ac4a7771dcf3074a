// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableN/BenchmarkFigN corresponds to one
// artifact; custom metrics carry the headline numbers so `go test
// -bench` output doubles as a results table. EXPERIMENTS.md records a
// full run against the paper's values.
package repro_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/baselines/haystack"
	"repro/internal/crowd"
	"repro/internal/engine"
	"repro/mopeye"
)

// Aliases keeping the ablation table readable.
type engineConfig = engine.Config

func engineDefault() engine.Config  { return engine.Default() }
func engineToyVpn() engine.Config   { return engine.ToyVpn() }
func haystackConfig() engine.Config { return haystack.Config() }

// benchStudy is generated once and shared by the read-only analysis
// benchmarks.
var (
	benchStudyOnce sync.Once
	benchStudy     *mopeye.Study
)

func study() *mopeye.Study {
	benchStudyOnce.Do(func() {
		benchStudy = mopeye.NewStudy(0.05, 2016)
	})
	return benchStudy
}

// BenchmarkTable1_WriteSchemes regenerates Table 1: tunnel-write and
// enqueue delay under the four writing schemes (§3.5.1).
func BenchmarkTable1_WriteSchemes(b *testing.B) {
	o := mopeye.DefaultTable1Options()
	o.Pages = 6
	var last *mopeye.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunTable1(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.DirectWrite.LargeFraction()*100, "direct-large-%")
	b.ReportMetric(last.OldPut.LargeFraction()*100, "oldPut-large-%")
	b.ReportMetric(last.NewPut.LargeFraction()*100, "newPut-large-%")
	b.Logf("\n%s", last)
}

// BenchmarkTable2_Accuracy regenerates Table 2: MopEye vs MobiPerf
// accuracy against tcpdump ground truth (§4.1.1).
func BenchmarkTable2_Accuracy(b *testing.B) {
	o := mopeye.DefaultTable2Options()
	o.RunsPerDest = 1
	o.ProbesPerRun = 8
	var rows []mopeye.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mopeye.RunTable2(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstMop, worstMobi float64
	for _, r := range rows {
		if r.DeltaMopEye > worstMop {
			worstMop = r.DeltaMopEye
		}
		if r.DeltaMobiPerf > worstMobi {
			worstMobi = r.DeltaMobiPerf
		}
	}
	b.ReportMetric(worstMop, "mopeye-worst-δms")
	b.ReportMetric(worstMobi, "mobiperf-worst-δms")
	b.Logf("\n%s", mopeye.RenderTable2(rows))
}

// BenchmarkTable3_Throughput regenerates Table 3: relay throughput
// overhead (§4.1.2).
func BenchmarkTable3_Throughput(b *testing.B) {
	o := mopeye.DefaultTable3Options()
	o.Duration = time.Second
	var last *mopeye.Table3Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MopEyeDown, "mopeye-down-Mbps")
	b.ReportMetric(last.MopEyeUp, "mopeye-up-Mbps")
	b.ReportMetric(last.HaystackDown, "haystack-down-Mbps")
	b.ReportMetric(last.HaystackUp, "haystack-up-Mbps")
	b.Logf("\n%s", last)
}

// BenchmarkTable4_Resources regenerates Table 4: CPU/battery/memory
// overhead during a streamed video (§4.1.3).
func BenchmarkTable4_Resources(b *testing.B) {
	o := mopeye.DefaultTable4Options()
	o.Duration = 1500 * time.Millisecond
	var last *mopeye.Table4Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MopEye.CPUPercent, "mopeye-cpu-%")
	b.ReportMetric(last.Haystack.CPUPercent, "haystack-cpu-%")
	b.ReportMetric(last.MopEye.MemoryMB, "mopeye-mem-MB")
	b.ReportMetric(last.Haystack.MemoryMB, "haystack-mem-MB")
	b.Logf("\n%s", last)
}

// BenchmarkFig5_LazyMapping regenerates Figure 5: packet-to-app mapping
// overhead before/after the lazy scheme (§3.3).
func BenchmarkFig5_LazyMapping(b *testing.B) {
	o := mopeye.DefaultFig5Options()
	o.Pages = 10
	var last *mopeye.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := mopeye.RunFig5(o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Lazy.MitigationRate()*100, "mitigation-%")
	b.ReportMetric((1-last.EagerCDF.At(5))*100, "eager->5ms-%")
	b.Logf("\n%s", last)
}

// BenchmarkFig6_Contributions regenerates Figure 6: measurements per
// user and per app.
func BenchmarkFig6_Contributions(b *testing.B) {
	s := study()
	var a, ap crowd.ContributionBuckets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = crowd.Fig6aUsers(s.Dataset())
		ap = crowd.Fig6bApps(s.Dataset())
	}
	b.ReportMetric(float64(a.Over10K), "users->10K")
	b.ReportMetric(float64(ap.H100to1K), "apps-100-1K")
	b.Logf("\n%s", s.ReportContributions())
}

// BenchmarkFig7_Countries regenerates Figure 7 (top user countries)
// and the Figure 8 location summary.
func BenchmarkFig7_Countries(b *testing.B) {
	s := study()
	var top []crowd.CountryCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top = crowd.Fig7TopCountries(s.Dataset(), 20)
	}
	b.ReportMetric(float64(top[0].Devices), "top-country-devices")
	b.Logf("\n%s", s.ReportCountries())
}

// BenchmarkFig9_AppRTT regenerates Figure 9: raw and per-app-median
// RTT distributions.
func BenchmarkFig9_AppRTT(b *testing.B) {
	s := study()
	var f *crowd.Fig9Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = crowd.Fig9(s.Dataset())
	}
	b.ReportMetric(f.All.Median(), "median-all-ms")
	b.ReportMetric(f.WiFi.Median(), "median-wifi-ms")
	b.ReportMetric(f.Cellular.Median(), "median-cell-ms")
	b.ReportMetric(f.MedianLTE, "median-lte-ms")
	b.Logf("\n%s", s.ReportAppRTT())
}

// BenchmarkFig10_DNS regenerates Figure 10: DNS RTT distributions.
func BenchmarkFig10_DNS(b *testing.B) {
	s := study()
	var f *crowd.Fig10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = crowd.Fig10(s.Dataset())
	}
	b.ReportMetric(f.All.Median(), "median-all-ms")
	b.ReportMetric(f.WiFi.Median(), "median-wifi-ms")
	b.ReportMetric(f.LTE.Median(), "median-4g-ms")
	b.ReportMetric(f.G3.Median(), "median-3g-ms")
	b.ReportMetric(f.G2.Median(), "median-2g-ms")
	b.Logf("\n%s", s.ReportDNS())
}

// BenchmarkFig11_ISPDNS regenerates Figure 11: per-ISP DNS CDFs.
func BenchmarkFig11_ISPDNS(b *testing.B) {
	s := study()
	var cdfs map[string]*statsCDF
	_ = cdfs
	var singtelFast, verizonFast float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := crowd.Fig11(s.Dataset(), crowd.Fig11Defaults)
		singtelFast = m["Singtel"].At(10)
		verizonFast = m["Verizon"].At(10)
	}
	b.ReportMetric(singtelFast*100, "singtel-<10ms-%")
	b.ReportMetric(verizonFast*100, "verizon-<10ms-%")
}

// statsCDF avoids importing internal/stats here just for a type name.
type statsCDF = struct{}

// BenchmarkTable5_Apps regenerates Table 5: representative apps.
func BenchmarkTable5_Apps(b *testing.B) {
	s := study()
	var rows []crowd.Table5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = crowd.Table5(s.Dataset())
	}
	for _, r := range rows {
		if r.Label == "Whatsapp" {
			b.ReportMetric(r.MedianMS, "whatsapp-median-ms")
		}
		if r.Label == "YouTube" {
			b.ReportMetric(r.MedianMS, "youtube-median-ms")
		}
	}
	b.Logf("\n%s", s.ReportApps())
}

// BenchmarkTable6_ISPs regenerates Table 6: LTE operator DNS
// performance.
func BenchmarkTable6_ISPs(b *testing.B) {
	s := study()
	var rows []crowd.Table6Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = crowd.Table6(s.Dataset(), 15)
	}
	b.ReportMetric(float64(rows[0].N), "top-isp-dns-count")
	b.ReportMetric(rows[0].MedianMS, "top-isp-median-ms")
	b.Logf("\n%s", s.ReportISPs())
}

// BenchmarkCaseStudies regenerates the §4.2.2 case studies.
func BenchmarkCaseStudies(b *testing.B) {
	s := study()
	var wa *crowd.WhatsappCase
	var jio *crowd.JioCase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wa = crowd.AnalyzeWhatsapp(s.Dataset())
		jio = crowd.AnalyzeJio(s.Dataset())
	}
	b.ReportMetric(wa.SlowDomainMedian, "whatsapp-softlayer-ms")
	b.ReportMetric(jio.AppMedian, "jio-app-median-ms")
	b.ReportMetric(jio.DNSMedian, "jio-dns-median-ms")
	b.Logf("\n%s\n%s", wa, jio)
}

// BenchmarkCrowdGenerate measures dataset generation itself.
func BenchmarkCrowdGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := crowd.Generate(crowd.Config{Scale: 0.02, Seed: int64(i + 1)})
		if len(ds.Records) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkRelayConnect measures the per-connection cost of the full
// relay path: SYN through the tunnel, user-space handshake, external
// connect, measurement.
func BenchmarkRelayConnect(b *testing.B) {
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{{Domain: "bench.example", Addr: "203.0.113.50:80", RTTMillis: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer phone.Close()
	phone.InstallApp(1, "bench.app")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := phone.Connect(1, "203.0.113.50:80")
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkRelayEcho measures a small request/response exchange through
// the relay.
func BenchmarkRelayEcho(b *testing.B) {
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{{Domain: "bench.example", Addr: "203.0.113.51:80", RTTMillis: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer phone.Close()
	phone.InstallApp(1, "bench.app")
	conn, err := phone.Connect(1, "203.0.113.51:80")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("0123456789abcdef")
	buf := make([]byte, len(msg))
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if err := conn.ReadFull(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallel sweeps the engine's worker counts under a
// multi-app packet flood — the scaling workload the single-phone paper
// never exercises. The custom metrics carry relay throughput per
// worker count; on a multi-core host Workers=4 should clearly beat
// Workers=1, while Workers=1 is the paper-faithful MainWorker loop.
func BenchmarkEngineParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := mopeye.DefaultParallelBenchOptions()
			o.WorkerCounts = []int{w}
			var pktsPerSec float64
			var pkts int
			for i := 0; i < b.N; i++ {
				res, err := mopeye.RunParallelBench(o)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.Errors > 0 {
					b.Fatalf("flood errors: %d", row.Errors)
				}
				pktsPerSec = row.PacketsPerSec
				pkts = row.Packets
			}
			b.ReportMetric(pktsPerSec, "pkts/sec")
			b.ReportMetric(float64(pkts), "pkts/run")
		})
	}
}

// BenchmarkEngineCeiling sweeps worker counts over a zero-delay
// loopback network (netsim.SetLoopback): no simulated wire delay
// anywhere, so pkts/sec is the engine's own ceiling — dispatch (the
// PeekFlowKey fast path), flow table, relay handlers, pooled UDP —
// rather than the path. Compare with BenchmarkEngineParallel, which
// runs the same flood over a 1 ms simulated RTT.
func BenchmarkEngineCeiling(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := mopeye.DefaultDispatchBenchOptions()
			o.WorkerCounts = []int{w}
			var pktsPerSec float64
			var udpRelayed int
			for i := 0; i < b.N; i++ {
				res, err := mopeye.RunDispatchBench(o)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.Errors > 0 {
					b.Fatalf("flood errors: %d", row.Errors)
				}
				pktsPerSec = row.PacketsPerSec
				udpRelayed = row.UDPRelayed
			}
			b.ReportMetric(pktsPerSec, "pkts/sec")
			b.ReportMetric(float64(udpRelayed), "udp/run")
		})
	}
}

// BenchmarkEngineCeilingReadBatch ablates the batched TUN read path at
// Workers=4: readbatch=1 is the PR 2 behaviour (per-packet retrieval,
// per-packet queue locks), larger bursts amortise the TUN queue, the
// per-worker ring pushes, and the batched tunnel writes. The pkts/sec
// gap is what the batching layer itself buys at the engine ceiling.
func BenchmarkEngineCeilingReadBatch(b *testing.B) {
	for _, rb := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("readbatch=%d", rb), func(b *testing.B) {
			o := mopeye.DefaultDispatchBenchOptions()
			o.WorkerCounts = []int{4}
			o.ReadBatch = rb
			var pktsPerSec float64
			for i := 0; i < b.N; i++ {
				res, err := mopeye.RunDispatchBench(o)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.Errors > 0 {
					b.Fatalf("flood errors: %d", row.Errors)
				}
				pktsPerSec = row.PacketsPerSec
			}
			b.ReportMetric(pktsPerSec, "pkts/sec")
		})
	}
}

// BenchmarkEngineCeilingAdaptiveBatch races the AIMD burst governor
// against pinned burst sizes at Workers=4. Under the sustained
// loopback flood the governor should converge to the ceiling within
// the first bursts, so "auto" must land within noise of the best fixed
// batch; the avg-batch metric shows where it settled.
func BenchmarkEngineCeilingAdaptiveBatch(b *testing.B) {
	for _, arm := range []struct {
		name string
		rb   int
		auto bool
	}{{"fixed=4", 4, false}, {"fixed=64", 64, false}, {"auto", 0, true}} {
		b.Run(arm.name, func(b *testing.B) {
			o := mopeye.DefaultDispatchBenchOptions()
			o.WorkerCounts = []int{4}
			o.ReadBatch = arm.rb
			o.ReadBatchAuto = arm.auto
			var pktsPerSec, avgBatch float64
			for i := 0; i < b.N; i++ {
				res, err := mopeye.RunDispatchBench(o)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.Errors > 0 {
					b.Fatalf("flood errors: %d", row.Errors)
				}
				pktsPerSec = row.PacketsPerSec
				avgBatch = row.AvgReadBatch
			}
			b.ReportMetric(pktsPerSec, "pkts/sec")
			b.ReportMetric(avgBatch, "avg-batch")
		})
	}
}

// BenchmarkSubscribeOverhead is the streaming pipeline's ceiling
// guard: the Workers=4 loopback flood with 0, 1 and 8 live
// measurement subscribers attached. subs=0 is the zero-subscriber
// publish path (allocation-free, pinned by measure's 0-allocs test)
// and must sit within noise of BenchmarkEngineCeiling/workers=4 — the
// broadcast layer may not tax an engine nobody is listening to. The
// subs=1/8 rows record what bounded fan-out costs when someone is.
func BenchmarkSubscribeOverhead(b *testing.B) {
	for _, subs := range []int{0, 1, 8} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			o := mopeye.DefaultDispatchBenchOptions()
			o.WorkerCounts = []int{4}
			o.Subscribers = subs
			var pktsPerSec float64
			var streamed, dropped int
			for i := 0; i < b.N; i++ {
				res, err := mopeye.RunDispatchBench(o)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if row.Errors > 0 {
					b.Fatalf("flood errors: %d", row.Errors)
				}
				pktsPerSec = row.PacketsPerSec
				streamed = row.Streamed
				dropped = row.StreamDropped
			}
			b.ReportMetric(pktsPerSec, "pkts/sec")
			b.ReportMetric(float64(streamed), "streamed/run")
			b.ReportMetric(float64(dropped), "stream-drops/run")
		})
	}
}

// BenchmarkFleetFanIn prices the crowdsourcing wire: an 8-phone fleet
// runs the same echo workload with its Collectors uploading in-process
// (PR 4's ceiling — no wire at all) and over HTTP into a local
// collector server (batch encoding, idempotency keys, bounded upload
// queue, server-side dedup and spool-less accept path). The custom
// metrics carry records/sec per mode; the http/inproc gap is what the
// wire protocol costs at fan-in. The run fails if the server's record
// count ever diverges from what the fleet uploaded.
func BenchmarkFleetFanIn(b *testing.B) {
	for _, mode := range []string{"inproc", "http"} {
		b.Run(mode, func(b *testing.B) {
			o := mopeye.DefaultFleetBenchOptions()
			o.Modes = []string{mode}
			var row *mopeye.FleetBenchRow
			for i := 0; i < b.N; i++ {
				res, err := mopeye.RunFleetBench(o)
				if err != nil {
					b.Fatal(err)
				}
				row = res.Row(mode)
			}
			b.ReportMetric(row.RecordsPerSec, "recs/sec")
			b.ReportMetric(float64(row.Records), "recs/run")
			b.ReportMetric(float64(row.Uploads), "batches/run")
		})
	}
}

// BenchmarkAblationConnectLatency compares the app-observed connect
// latency across engine variants — the ablation DESIGN.md calls out:
// MopEye's defaults vs the ToyVpn-style unoptimised relay vs the
// Haystack-style poll-based relay.
func BenchmarkAblationConnectLatency(b *testing.B) {
	variants := []struct {
		name string
		cfg  func() engineConfig
	}{
		{"mopeye", func() engineConfig { return engineDefault() }},
		{"toyvpn", func() engineConfig {
			c := engineToyVpn()
			c.PollInterval = 20 * time.Millisecond
			return c
		}},
		{"haystack", func() engineConfig { return haystackConfig() }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg()
			phone, err := mopeye.New(mopeye.Options{
				Servers: []mopeye.Server{{Domain: "abl.example", Addr: "203.0.113.60:80", RTTMillis: 10}},
				Engine:  &cfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer phone.Close()
			phone.InstallApp(1, "abl.app")
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conn, err := phone.Connect(1, "203.0.113.60:80")
				if err != nil {
					b.Fatal(err)
				}
				total += conn.ConnectLatency()
				conn.Close()
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "connect-ms")
		})
	}
}
