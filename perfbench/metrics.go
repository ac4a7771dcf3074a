package main

// The metric catalogue: every name the benchmark reports, its unit,
// which direction is better, and — for per-layer metrics — the
// end-to-end metric and workload it is expected to move. BENCHMARK.json
// at the repository root lists the same names; the self-test checks
// that the two agree.

// e2eSpec is one end-to-end metric. Every workload reports every
// end-to-end metric; the four workload-shaped ones (throughput, op
// median, op tail, side median) carry a workload-specific meaning,
// named in workload.alias.
type e2eSpec struct {
	name, unit, better string
}

var e2eSpecs = []e2eSpec{
	{"throughput_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"side_p50_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerSpec is one per-layer metric and the end-to-end metric it feeds.
type layerSpec struct {
	name, unit, better string
	feeds              string // "<end-to-end metric> (<workload>)"
}

var layerSpecs = []layerSpec{
	{"tun.read_wait_us", "us", "lower", "echo_p50_ms (relay-flood)"},
	{"tun.empty_reads_per_pkt", "ratio", "lower", "relay_pkts_per_s (relay-flood)"},
	{"tun.drops", "count", "lower", "failed_ratio (all)"},

	{"engine.avg_read_batch", "pkts", "higher", "relay_pkts_per_s (relay-flood)"},
	{"engine.put_gt1ms_frac", "ratio", "lower", "echo_p99_ms (relay-flood)"},
	{"engine.write_gt1ms_frac", "ratio", "lower", "echo_p99_ms (relay-flood)"},
	{"engine.echo_wait_us", "us", "lower", "echo_p50_ms (relay-flood)"},
	{"engine.udp_relayed", "count", "higher", "failed_ratio (all)"},
	{"engine.udp_dropped", "count", "lower", "failed_ratio (connect-churn)"},
	{"engine.udp_no_response", "count", "lower", "failed_ratio (all)"},
	{"engine.dns_timeouts", "count", "lower", "failed_ratio (connect-churn)"},
	{"engine.mapping_avoided_ratio", "ratio", "higher", "connect_p50_ms (connect-churn)"},
	{"engine.mapping_parses_per_syn", "ratio", "lower", "connect_p50_ms (connect-churn)"},
	{"engine.measurements_per_connect", "ratio", "higher", "failed_ratio (connect-churn)"},

	{"phonestack.connect_p50_us", "us", "lower", "connect_p50_ms (connect-churn)"},
	{"phonestack.connect_p99_us", "us", "lower", "connect_p75_ms (connect-churn)"},
	{"phonestack.connect_p99_ms", "ms", "lower", "connect_p75_ms (connect-churn)"},
	{"phonestack.echo_p50_us", "us", "lower", "echo_p50_ms (relay-flood)"},
	{"phonestack.echo_p99_us", "us", "lower", "echo_p99_ms (relay-flood)"},
	{"phonestack.resolve_p50_us", "us", "lower", "resolve_p50_ms (connect-churn)"},
	{"phonestack.resolve_p99_us", "us", "lower", "resolve_p50_ms (connect-churn)"},
	{"phonestack.udp_rtt_p50_us", "us", "lower", "udp_rtt_p50_ms (relay-flood)"},
	{"phonestack.udp_rtt_p99_us", "us", "lower", "udp_rtt_p50_ms (relay-flood)"},

	{"packet.peek_ns", "ns", "lower", "relay_pkts_per_s (relay-flood)"},
	{"packet.decode_ns", "ns", "lower", "relay_pkts_per_s (relay-flood)"},
	{"packet.decode_allocs", "count", "lower", "relay_pkts_per_s (relay-flood)"},
	{"packet.encode_ns", "ns", "lower", "relay_pkts_per_s (relay-flood)"},
	{"packet.encode_allocs", "count", "lower", "relay_pkts_per_s (relay-flood)"},

	{"flowtable.get_ns", "ns", "lower", "relay_pkts_per_s (relay-flood)"},
	{"flowtable.put_delete_ns", "ns", "lower", "connects_per_s (connect-churn)"},

	{"tcpsm.handshake_ns", "ns", "lower", "connect_p50_ms (connect-churn)"},
	{"tcpsm.data_step_ns", "ns", "lower", "relay_pkts_per_s (relay-flood)"},

	{"sockets.select_ns", "ns", "lower", "relay_pkts_per_s (relay-flood)"},

	{"procnet.parse_us", "us", "lower", "connect_p50_ms (connect-churn)"},

	{"dnsmsg.decode_ns", "ns", "lower", "resolve_p50_ms (connect-churn)"},
	{"dnsmsg.encode_ns", "ns", "lower", "resolve_p50_ms (connect-churn)"},

	{"measure.store_add_ns_0sub", "ns", "lower", "connects_per_s (connect-churn)"},
	{"measure.store_add_ns_1sub", "ns", "lower", "connects_per_s (connect-churn)"},
	{"measure.encode_batch_us", "us", "lower", "ingest_records_per_s (ingest-spool)"},
	{"measure.decode_batch_us", "us", "lower", "ingest_records_per_s (ingest-spool)"},
	{"measure.batch_bytes", "bytes", "lower", "ingest_records_per_s (ingest-spool)"},

	{"crowd.serve_p50_us", "us", "lower", "upload_p50_ms (ingest-spool)"},
	{"crowd.serve_p99_us", "us", "lower", "upload_p99_ms (ingest-spool)"},
	{"crowd.dedup_hits", "count", "higher", "failed_ratio (ingest-spool)"},
	{"crowd.spool_append_us", "us", "lower", "ingest_records_per_s (ingest-spool)"},
	{"crowd.spool_bytes_per_record", "bytes", "lower", "ingest_records_per_s (ingest-spool)"},
	{"crowd.stats_us", "us", "lower", "stats_read_p50_ms (ingest-spool)"},

	{"sketch.add_ns", "ns", "lower", "ingest_records_per_s (ingest-spool)"},
	{"sketch.quantile_ns", "ns", "lower", "stats_read_p50_ms (ingest-spool)"},

	{"transport.http_self_us", "us", "lower", "upload_p50_ms (ingest-spool)"},
	{"transport.retries", "count", "lower", "failed_ratio (ingest-spool)"},
	{"transport.dropped", "count", "lower", "failed_ratio (ingest-spool)"},

	{"runtime.allocs_per_op", "count", "lower", "throughput_per_s (all)"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", "throughput_per_s (all)"},
	{"runtime.gc_cycles", "count", "lower", "op_tail_ms (all)"},
	{"runtime.gc_pause_ms", "ms", "lower", "op_tail_ms (all)"},
	{"runtime.cpu_util", "ratio", "lower", "throughput_per_s (all)"},
	{"runtime.heap_end_mb", "MB", "lower", "heap_mb (all)"},

	{"trace.overhead_rate_pct", "%", "lower", "throughput_per_s (all)"},
	{"trace.overhead_p50_pct", "%", "lower", "op_p50_ms (all)"},
}

// alias names a workload's end-to-end metric the way its users read
// it: relay-flood's throughput_per_s is relay_pkts_per_s, and so on.
type alias struct {
	name, unit string
	q          float64 // the percentile behind a latency metric
}
