package mopeye

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
)

// The ingest smoke: a small fleet through the real wire into a sharded
// retain-off collector, with client-side exact verification of the
// sketched medians. This is the CI gate for the load harness.
func TestIngestBenchSmoke(t *testing.T) {
	o := IngestBenchOptions{
		Devices:          1000,
		BatchesPerDevice: 2,
		RecordsPerBatch:  4,
		DuplicateEvery:   10,
		Workers:          4,
		IngestShards:     4,
		Seed:             7,
		VerifyExact:      true,
		MetricsAddr:      "127.0.0.1:0",
	}
	res, err := RunIngestBench(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2000 || res.Records != 8000 {
		t.Errorf("volume: %+v", res)
	}
	if res.Server.Batches != 2000 || res.Server.Records != 8000 {
		t.Errorf("server view: %+v", res.Server)
	}
	if res.Server.Duplicates == 0 {
		t.Error("redeliveries never exercised dedup")
	}
	// One key per unique batch — redeliveries share keys.
	if res.DedupKeys != 2000 {
		t.Errorf("dedup keys: %d", res.DedupKeys)
	}
	if res.RecordsPerSec <= 0 || res.Duration <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
	if res.UploadP99MS < res.UploadP50MS || res.UploadP50MS <= 0 {
		t.Errorf("latency quantiles inverted: p50=%g p99=%g", res.UploadP50MS, res.UploadP99MS)
	}
	if !res.Verified {
		t.Fatal("exact verification did not run")
	}
	// RunIngestBench fails hard above 10*alpha; this asserts the
	// recorded number is sane too.
	if res.MedianMaxRelErr > 0.1 {
		t.Errorf("sketched medians off by %.4f", res.MedianMaxRelErr)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

// BlockOnFull converts queue overflow from drops into backpressure:
// a slow collector with a 1-slot queue still receives every batch.
func TestHTTPTransportBlockOnFull(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		served.Add(1)
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{QueueSize: 1, BlockOnFull: true})
	for i := 0; i < 8; i++ {
		b := Batch{Device: "p1", Key: string(rune('a' + i)), Seq: i, Records: uploadRecs(1, "com.app")}
		if err := tr.Upload(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Dropped != 0 || st.Uploaded != 8 {
		t.Errorf("blocking transport stats: %+v", st)
	}
	if ss := srv.Stats(); ss.Batches != 8 {
		t.Errorf("server got %d batches", ss.Batches)
	}
	// A cancelled context unblocks a waiting Upload.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tr.Upload(ctx, Batch{}); err == nil {
		t.Error("upload on cancelled context accepted")
	}
}

// OnAttempt observes every delivery attempt — failures with their
// errors, then the success — in order.
func TestHTTPTransportOnAttempt(t *testing.T) {
	var durs []time.Duration
	var errs []error
	srv, _, tr := flakyCollectord(t, []string{"503", "503"}, HTTPTransportOptions{
		OnAttempt: func(d time.Duration, err error) {
			durs = append(durs, d)
			errs = append(errs, err)
		},
	})
	b := Batch{Device: "p1", Key: "p1/k/1", Seq: 1, Records: uploadRecs(2, "com.app")}
	if err := tr.Upload(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 || errs[0] == nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("attempt errors: %v", errs)
	}
	for i, d := range durs {
		if d <= 0 {
			t.Errorf("attempt %d duration: %v", i, d)
		}
	}
	if ss := srv.Stats(); ss.Batches != 1 {
		t.Errorf("server stats: %+v", ss)
	}
}

// The stats client reads the sketched aggregates over the wire.
func TestFetchCollectorStats(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, HTTPTransportOptions{Token: "tok"})
	b := Batch{Device: "p1", Key: "p1/k/1", Seq: 1, Records: uploadRecs(5, "com.app")}
	if err := tr.Upload(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := FetchCollectorStats(ts.Client(), ts.URL, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Records != 5 || sum.TCPRecords != 5 {
		t.Errorf("summary: %+v", sum)
	}
	qs, ok := sum.PerApp["com.app"]
	if !ok || qs.N != 5 {
		t.Errorf("per-app summary: %+v", sum.PerApp)
	}
	if _, err := FetchCollectorStats(ts.Client(), ts.URL, "wrong"); err == nil {
		t.Error("bad token accepted")
	}
}

// The fleet acceptance e2e against a four-shard spooling collector:
// the byte-identical exactly-once dataset property survives sharded
// ingest under 503s, stalls, and duplicate deliveries — in memory and
// in the per-shard spool chains.
func TestFleetE2EShardedServerMatchesInProcess(t *testing.T) {
	spool := t.TempDir()
	srv, err := crowd.NewServer(crowd.ServerOptions{Token: "fleet-secret", IngestShards: 4, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	flaky := &flakyHandler{inner: srv, script: []string{
		"503", "dup", "hang", "503", "dup", "503",
	}}
	ts := httptest.NewServer(flaky)
	defer ts.Close()
	transport := NewHTTPTransport(ts.URL, HTTPTransportOptions{
		Client:      &http.Client{Timeout: 50 * time.Millisecond},
		Token:       "fleet-secret",
		QueueSize:   64,
		MaxAttempts: 12,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})

	fleet, err := NewFleet(FleetOptions{
		Phones:    fleetRoster(t, 8),
		Transport: transport,
		Collector: CollectorOptions{BatchSize: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Run(context.Background()); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := transport.Close(); err != nil {
		t.Fatalf("transport close: %v", err)
	}
	if tstats := transport.Stats(); tstats.Dropped != 0 || tstats.Failed != 0 {
		t.Fatalf("transport lost batches: %+v", tstats)
	}
	if ss := srv.Stats(); ss.Duplicates == 0 {
		t.Error("fault injection never exercised sharded dedup")
	}

	// Byte-identical under canonical order, across shard boundaries.
	local := fleet.Records()
	remote := srv.Records()
	if len(remote) != len(local) {
		t.Fatalf("sharded server holds %d records, fleet uploaded %d", len(remote), len(local))
	}
	if !bytes.Equal(jsonlBytes(t, local), jsonlBytes(t, remote)) {
		t.Fatal("sharded server dataset diverges from the fleet's records")
	}
	spooled, err := crowd.ReadSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonlBytes(t, local), jsonlBytes(t, spooled)) {
		t.Fatal("spooled dataset diverges from the fleet's records")
	}

	// The sketched medians agree with the exact nearest-rank medians
	// over the very same fleet dataset, per app, within alpha. (The
	// sketch answers nearest-rank quantiles; interpolated medians —
	// measure.AppMedians — can sit between two samples on tiny
	// even-count sets, so they are not the comparable baseline.)
	sum := srv.Summary()
	for app, rs := range measure.ByApp(remote) {
		ms := measure.RTTMillis(rs)
		sort.Float64s(ms)
		want := ms[(len(ms)-1)/2]
		qs, ok := sum.PerApp[app]
		if !ok {
			t.Fatalf("app %s missing from sharded summary", app)
		}
		if relDiff(qs.P50MS, want) > 2*sum.RelativeAccuracy {
			t.Errorf("app %s: sketched median %g vs exact %g", app, qs.P50MS, want)
		}
	}
	// And the wire-read summary is the same document.
	wireSum, err := FetchCollectorStats(ts.Client(), ts.URL, "fleet-secret")
	if err != nil {
		t.Fatal(err)
	}
	if wireSum.Stats != sum.Stats || len(wireSum.PerApp) != len(sum.PerApp) {
		t.Errorf("wire summary diverges: %+v vs %+v", wireSum.Stats, sum.Stats)
	}
}
