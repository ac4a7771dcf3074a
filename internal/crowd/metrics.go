package crowd

import (
	"io"
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// Collector observability. Every instrument is a scrape-time read over
// state the server already maintains — the upload hot path is not
// touched. Counters and sketch summaries are totals over the ingest
// shards, so they read the same whatever the shard count; the
// per-shard skew family and the spool footprint (one chain per shard)
// show the split.

// metricsRegistry builds (once) the server's registry.
func (s *Server) metricsRegistry() *metrics.Registry {
	s.metricsOnce.Do(func() {
		r := metrics.NewRegistry()
		r.CounterFunc("mopeye_collector_uploads_total",
			"Upload batches accepted (excluding duplicates).",
			func() float64 { return float64(s.c.batches.Load()) })
		r.CounterFunc("mopeye_collector_records_total",
			"Measurement records accepted.",
			func() float64 { return float64(s.c.records.Load()) })
		r.CounterFunc("mopeye_collector_dedup_hits_total",
			"Redelivered batches absorbed by idempotency-key dedup.",
			func() float64 { return float64(s.c.duplicates.Load()) })
		r.CounterFunc("mopeye_collector_auth_failures_total",
			"Uploads rejected for bad tokens or device-stamp mismatches.",
			func() float64 { return float64(s.c.authFailures.Load()) })
		r.CounterFunc("mopeye_collector_bad_requests_total",
			"Malformed uploads rejected.",
			func() float64 { return float64(s.c.badRequests.Load()) })
		r.GaugeFunc("mopeye_collector_dedup_keys",
			"Idempotency keys held (dedup-map footprint).",
			func() float64 { return float64(s.DedupKeys()) })
		r.GaugeFunc("mopeye_collector_retain_records",
			"1 when raw records are retained in memory, 0 under RetainOff.",
			func() float64 {
				if s.o.retain() {
					return 1
				}
				return 0
			})
		r.GaugeFunc("mopeye_collector_spool_segments",
			"Spool segment files across the shard chains (0 when memory-only).",
			func() float64 { return float64(s.spoolStats().Segments) })
		r.GaugeFunc("mopeye_collector_spool_bytes",
			"Total spool bytes across the shard chains (0 when memory-only).",
			func() float64 { return float64(s.spoolStats().Bytes) })
		// Per-ingest-shard record counts: the skew view. The shard index
		// is the device-hash bucket, so the samples sum to records_total.
		r.CollectGauges("mopeye_collector_shard_records",
			"Records committed per ingest shard (device-hash skew).",
			func() []metrics.Sample {
				out := make([]metrics.Sample, 0, len(s.shards))
				for i := range s.shards {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("shard", strconv.Itoa(i))},
						Value:  float64(s.shards[i].recCount.Load()),
					})
				}
				return out
			})
		// Per-network RTT summaries straight off the aggregation
		// sketches: mergedAgg builds fresh sketches, so the samples own
		// their state and the quantiles carry the sketch's ±alpha bound.
		r.CollectSummaries("mopeye_collector_rtt_ms",
			"Measured RTTs (ms) by network key, sketched.",
			func() []metrics.Sample {
				a := s.mergedAgg()
				out := make([]metrics.Sample, 0, len(a.perNet))
				for key, sk := range a.perNet {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("net", key)},
						Sketch: sk,
					})
				}
				return out
			})
		s.metricsReg = r
	})
	return s.metricsReg
}

// Metrics snapshots the server's observability state.
func (s *Server) Metrics() metrics.Snapshot {
	return s.metricsRegistry().Gather()
}

// WriteMetrics renders the server's /metrics document.
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.metricsRegistry().WritePrometheus(w)
}

// MetricsHandler serves the server's metrics in exposition format.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		_ = s.WriteMetrics(w)
	})
}
