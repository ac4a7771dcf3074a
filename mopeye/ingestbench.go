package mopeye

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

// This file is the collector load harness behind `paperbench -exp
// ingest`: the paper's deployment question — can one collector absorb
// a fleet of 100k..1M phones? — asked of this implementation. No
// engine runs; worker goroutines synthesize batches for N simulated
// devices and push them through real HTTPTransports into a
// crowd.Server, so what gets measured is exactly the upload hot path:
// HTTP + wire decode + shard dedup + sketch update (+ the shard's
// spool append, when SpoolDir is set). The harness
// runs RetainRecords=off by design — at fleet scale the sketches are
// the product — and reports records/sec, per-attempt upload latency
// quantiles (sketched, naturally), the dedup-map footprint, and heap
// growth.

// IngestBenchOptions configures a collector ingest load run.
type IngestBenchOptions struct {
	// Devices is the simulated fleet size. Default 10_000.
	Devices int
	// BatchesPerDevice and RecordsPerBatch shape each device's upload
	// volume. Defaults 1 and 8.
	BatchesPerDevice int
	RecordsPerBatch  int
	// DuplicateEvery redelivers every Nth batch (same idempotency key)
	// so the dedup path is exercised under load; <= 0 disables.
	// Default 20.
	DuplicateEvery int
	// Workers is the number of concurrent uploader transports —
	// simulated upload concurrency. Default GOMAXPROCS.
	Workers int
	// ServerShards is ignored.
	//
	// Deprecated: the collector shards once, internally; set
	// IngestShards.
	ServerShards int
	// IngestShards is the collector's lock-shard count, one spool
	// chain each (0 = crowd.DefaultIngestShards).
	IngestShards int
	// RetainRecords keeps raw records server-side (off is the
	// fleet-scale configuration and the default here).
	RetainRecords bool
	// SpoolDir spools accepted batches when non-empty (off by default:
	// the harness measures ingest, not disk).
	SpoolDir string
	// Apps is the synthetic app-population size. Default 12.
	Apps int
	// Seed makes the synthesized workload reproducible. Default 1.
	Seed int64
	// VerifyExact additionally keeps every synthesized RTT client-side
	// and compares the server's sketched per-app medians against exact
	// nearest-rank medians — the end-to-end sketch-accuracy check. Costs
	// O(records) client memory; meant for smoke-sized runs.
	VerifyExact bool
	// MetricsAddr serves the collector's /metrics exposition on this
	// address (e.g. "127.0.0.1:9137") for the duration of the run,
	// so upload rates, dedup hits, and per-shard skew are scrapeable
	// live mid-load (`paperbench -exp ingest -metrics-addr ...`; the CI
	// metrics-smoke step curls it). Empty disables.
	MetricsAddr string
}

// DefaultIngestBenchOptions returns the smoke-sized load.
func DefaultIngestBenchOptions() IngestBenchOptions {
	return IngestBenchOptions{
		Devices:          10_000,
		BatchesPerDevice: 1,
		RecordsPerBatch:  8,
		DuplicateEvery:   20,
	}
}

// IngestBenchResult is one load run's outcome.
type IngestBenchResult struct {
	Options IngestBenchOptions

	Devices  int
	Batches  int // unique batches delivered (excludes redeliveries)
	Records  int
	Duration time.Duration

	RecordsPerSec float64
	BatchesPerSec float64

	// UploadP50MS / UploadP99MS are per-attempt upload latencies
	// (sketched client-side via Transport.OnAttempt).
	UploadP50MS float64
	UploadP99MS float64

	// DedupKeys is the server's idempotency-key count after the run —
	// the structure whose footprint grows with fleet lifetime.
	DedupKeys int
	// HeapGrowthMB is the server-process heap delta across the run
	// (post-GC HeapAlloc, after minus before). With RetainRecords off it
	// bounds the collector's marginal cost of this much ingest.
	HeapGrowthMB float64

	Server crowd.ServerStats
	// MedianMaxRelErr is the worst sketched-vs-exact per-app median
	// relative error (VerifyExact runs only; see IngestBenchOptions).
	MedianMaxRelErr float64
	Verified        bool
}

// String renders the run for EXPERIMENTS.md.
func (r *IngestBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %8s %9s %10s %12s %10s %10s %10s %9s\n",
		"devices", "workers", "shards", "duration", "recs/sec", "p50-up", "p99-up", "dedup-keys", "heap+MB")
	fmt.Fprintf(&b, "%9d %8d %9d %10s %12.0f %8.2fms %8.2fms %10d %9.1f\n",
		r.Devices, r.Options.Workers, r.Options.IngestShards, r.Duration.Round(time.Millisecond),
		r.RecordsPerSec, r.UploadP50MS, r.UploadP99MS, r.DedupKeys, r.HeapGrowthMB)
	fmt.Fprintf(&b, "server: batches=%d records=%d duplicates=%d",
		r.Server.Batches, r.Server.Records, r.Server.Duplicates)
	if r.Verified {
		fmt.Fprintf(&b, "  sketch-vs-exact median err=%.4f (alpha %.3f)",
			r.MedianMaxRelErr, sketch.DefaultAlpha)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// ingestWorker is one uploader's slice of the fleet: its own transport
// (blocking, so nothing drops and the server sets the pace), its own
// latency sketch (OnAttempt is sequential per transport), and — when
// verifying — its own per-app RTT log.
type ingestWorker struct {
	lat     *sketch.Sketch
	appRTTs map[string][]float64
	err     error
}

// RunIngestBench runs the fleet-scale ingest load once.
func RunIngestBench(o IngestBenchOptions) (*IngestBenchResult, error) {
	if o.Devices <= 0 {
		o.Devices = 10_000
	}
	if o.BatchesPerDevice <= 0 {
		o.BatchesPerDevice = 1
	}
	if o.RecordsPerBatch <= 0 {
		o.RecordsPerBatch = 8
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.IngestShards <= 0 {
		o.IngestShards = crowd.DefaultIngestShards
	}
	if o.Apps <= 0 {
		o.Apps = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}

	retain := crowd.RetainOff
	if o.RetainRecords {
		retain = crowd.RetainOn
	}
	srv, err := crowd.NewServer(crowd.ServerOptions{
		SpoolDir:      o.SpoolDir,
		IngestShards:  o.IngestShards,
		RetainRecords: retain,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The live ops plane: /metrics on its own listener, up for exactly
	// the duration of the load.
	if o.MetricsAddr != "" {
		ln, err := net.Listen("tcp", o.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("mopeye: ingest bench metrics listener: %w", err)
		}
		ms := metrics.NewHTTPServer(srv.MetricsHandler())
		go ms.Serve(ln)
		defer ms.Close()
	}

	apps := make([]string, o.Apps)
	for i := range apps {
		apps[i] = fmt.Sprintf("bench.app%02d", i)
	}
	dst := netip.MustParseAddrPort("203.0.113.1:443")
	netTypes := []string{"WiFi", "LTE"}

	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	workers := make([]*ingestWorker, o.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Workers; w++ {
		iw := &ingestWorker{lat: sketch.New(0)}
		if o.VerifyExact {
			iw.appRTTs = make(map[string][]float64)
		}
		workers[w] = iw
		lo := w * o.Devices / o.Workers
		hi := (w + 1) * o.Devices / o.Workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{
				QueueSize:   64,
				BlockOnFull: true,
				OnAttempt: func(d time.Duration, err error) {
					iw.lat.Add(d.Seconds() * 1000)
				},
			})
			rng := rand.New(rand.NewSource(o.Seed + int64(w)))
			ctx := context.Background()
			sent := 0
			for dev := lo; dev < hi; dev++ {
				device := fmt.Sprintf("sim-%07d", dev)
				for j := 0; j < o.BatchesPerDevice; j++ {
					b := Batch{
						Device:  device,
						Key:     fmt.Sprintf("%s/b%d", device, j),
						Seq:     j,
						Records: make([]measure.Record, o.RecordsPerBatch),
					}
					for k := range b.Records {
						app := apps[rng.Intn(len(apps))]
						// Log-normal-ish RTTs: most connects tens of ms,
						// a heavy tail into seconds.
						ms := 8 + 60*rng.ExpFloat64()
						b.Records[k] = measure.Record{
							Kind:    measure.KindTCP,
							App:     app,
							UID:     10000 + dev%100,
							Dst:     dst,
							RTT:     time.Duration(ms * float64(time.Millisecond)),
							NetType: netTypes[dev%len(netTypes)],
						}
						if iw.appRTTs != nil {
							iw.appRTTs[app] = append(iw.appRTTs[app], b.Records[k].Millis())
						}
					}
					if err := tr.Upload(ctx, b); err != nil {
						iw.err = err
						tr.Close()
						return
					}
					sent++
					if o.DuplicateEvery > 0 && sent%o.DuplicateEvery == 0 {
						if err := tr.Upload(ctx, b); err != nil {
							iw.err = err
							tr.Close()
							return
						}
					}
				}
			}
			// Close drains the queue: the worker is not done until the
			// collector acknowledged its last batch.
			if err := tr.Close(); err != nil {
				iw.err = err
			}
			if st := tr.Stats(); st.Dropped > 0 || st.Failed > 0 {
				iw.err = fmt.Errorf("mopeye: ingest bench lost batches (dropped %d, failed %d)", st.Dropped, st.Failed)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	dur := time.Since(start)

	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	lat := sketch.New(0)
	for _, iw := range workers {
		if iw.err != nil {
			return nil, iw.err
		}
		lat.Merge(iw.lat)
	}

	wantBatches := o.Devices * o.BatchesPerDevice
	wantRecords := wantBatches * o.RecordsPerBatch
	st := srv.Stats()
	if st.Batches != wantBatches || st.Records != wantRecords {
		return nil, fmt.Errorf("mopeye: ingest bench delivered %d batches / %d records, server holds %d / %d",
			wantBatches, wantRecords, st.Batches, st.Records)
	}
	if o.DuplicateEvery > 0 && st.Duplicates == 0 {
		return nil, fmt.Errorf("mopeye: ingest bench redelivered batches but server absorbed none")
	}

	res := &IngestBenchResult{
		Options:       o,
		Devices:       o.Devices,
		Batches:       wantBatches,
		Records:       wantRecords,
		Duration:      dur,
		RecordsPerSec: float64(wantRecords) / dur.Seconds(),
		BatchesPerSec: float64(wantBatches) / dur.Seconds(),
		UploadP50MS:   lat.Quantile(0.5),
		UploadP99MS:   lat.Quantile(0.99),
		DedupKeys:     srv.DedupKeys(),
		HeapGrowthMB:  float64(int64(msAfter.HeapAlloc)-int64(msBefore.HeapAlloc)) / (1 << 20),
		Server:        st,
	}

	if o.VerifyExact {
		res.Verified = true
		sum := srv.Summary()
		merged := make(map[string][]float64)
		for _, iw := range workers {
			for app, rtts := range iw.appRTTs {
				merged[app] = append(merged[app], rtts...)
			}
		}
		for app, rtts := range merged {
			sort.Float64s(rtts)
			exact := rtts[(len(rtts)-1)/2]
			qs, ok := sum.PerApp[app]
			if !ok || qs.N != uint64(len(rtts)) {
				return nil, fmt.Errorf("mopeye: ingest bench app %s: sent %d records, sketch holds %d", app, len(rtts), qs.N)
			}
			rel := relDiff(qs.P50MS, exact)
			if rel > res.MedianMaxRelErr {
				res.MedianMaxRelErr = rel
			}
		}
		// The sketch guarantees alpha relative error per rank; nearest
		// ranks straddling the probe add sampling slack on top.
		if res.MedianMaxRelErr > 10*sketch.DefaultAlpha {
			return nil, fmt.Errorf("mopeye: ingest bench sketched medians diverge: max rel err %.4f", res.MedianMaxRelErr)
		}
	}
	return res, nil
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := (got - want) / want
	if d < 0 {
		return -d
	}
	return d
}
