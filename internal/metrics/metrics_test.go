package metrics

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/sketch"
)

// TestExpositionGolden pins the rendered output byte for byte: family
// ordering by name, sample ordering by label signature, sorted labels
// inside a sample, summary quantile lines derived from the sketch, and
// no timestamps anywhere.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	g := r.Gauge("test_active_flows", "Open flows.")
	g.Set(7)
	c := r.Counter("test_packets_total", "Packets seen.", L("dir", "up"))
	c.Add(1500)
	r.Counter("test_packets_total", "Packets seen.", L("dir", "down")).Add(42)
	q := r.Quantile("test_rtt_ms", "Per-connection RTT.", 0, L("app", "web"))
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := b.String()

	want := strings.Join([]string{
		`# HELP test_active_flows Open flows.`,
		`# TYPE test_active_flows gauge`,
		`test_active_flows 7`,
		`# HELP test_packets_total Packets seen.`,
		`# TYPE test_packets_total counter`,
		`test_packets_total{dir="down"} 42`,
		`test_packets_total{dir="up"} 1500`,
		`# HELP test_rtt_ms Per-connection RTT.`,
		`# TYPE test_rtt_ms summary`,
		`test_rtt_ms{app="web",quantile="0.5"} ` + firstLineValue(t, got, `test_rtt_ms{app="web",quantile="0.5"}`),
		`test_rtt_ms{app="web",quantile="0.95"} ` + firstLineValue(t, got, `test_rtt_ms{app="web",quantile="0.95"}`),
		`test_rtt_ms{app="web",quantile="0.99"} ` + firstLineValue(t, got, `test_rtt_ms{app="web",quantile="0.99"}`),
		`test_rtt_ms_sum{app="web"} 5050`,
		`test_rtt_ms_count{app="web"} 100`,
	}, "\n") + "\n"

	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The quantile values themselves obey the sketch's accuracy bound.
	snap := r.Gather()
	for _, f := range snap {
		if f.Name != "test_rtt_ms" {
			continue
		}
		sk := f.Samples[0].Sketch
		for q, exact := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99} {
			got := sk.Quantile(q)
			if math.Abs(got-exact)/exact > 0.02 {
				t.Errorf("q%.2f = %.2f, want within 2%% of %.0f", q, got, exact)
			}
		}
	}

	// Rendering twice with no traffic in between is byte-identical
	// (determinism is what golden tests downstream rely on).
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if b2.String() != got {
		t.Fatal("second render differs from first with no writes in between")
	}
}

// firstLineValue extracts the value rendered for a series prefix — the
// sketch's estimate is deterministic but not worth hard-coding.
func firstLineValue(t *testing.T, expo, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return strings.TrimPrefix(line, prefix+" ")
		}
	}
	t.Fatalf("no line with prefix %q in:\n%s", prefix, expo)
	return ""
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("path", "a\\b\"c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\\b\"c\nd"} 1` + "\n"
	if got := b.String(); got != "# TYPE esc_total counter\n"+want {
		t.Fatalf("escaping: got %q", got)
	}
}

func TestRegistrationIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h", L("k", "v"))
	b := r.Counter("same_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("identical registration returned distinct counters")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("value = %d, want 3", b.Value())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("same_total", "h")
}

func TestGaugeAddConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 4000 {
		t.Fatalf("gauge = %v, want 4000", got)
	}
}

// TestScrapeUnderConcurrentWrites is the -race half of the coverage:
// every instrument type written from many goroutines while scrapes,
// gathers, and late registrations run concurrently.
func TestScrapeUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rc_total", "")
	g := r.Gauge("rc_gauge", "")
	q := r.Quantile("rc_rtt", "", 0)
	r.CounterFunc("rc_func_total", "", func() float64 { return float64(c.Value()) })
	r.CollectGauges("rc_dyn", "", func() []Sample {
		return []Sample{{Labels: []Label{L("w", "0")}, Value: g.Value()}}
	})

	const perWriter = 2000
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < perWriter; n++ {
				c.Inc()
				g.Set(float64(n))
				q.Observe(float64(n%100 + 1))
				if n%64 == 0 {
					// Late registration racing the scrape loop.
					r.Counter("rc_late_total", "", L("id", string(rune('a'+id)))).Inc()
				}
			}
		}(i)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if !strings.Contains(b.String(), "rc_total") {
			t.Fatal("scrape lost a family")
		}
	}
	wg.Wait()

	if v, ok := r.Gather().Get("rc_total"); !ok || v != 4*perWriter {
		t.Fatalf("rc_total = %v ok=%v, want %d", v, ok, 4*perWriter)
	}
}

// TestDynamicCollectors covers the scrape-time registration surface:
// GaugeFunc reads a live value, CollectCounters and CollectSummaries
// produce label sets only known at gather time.
func TestDynamicCollectors(t *testing.T) {
	r := NewRegistry()

	depth := 3.0
	r.GaugeFunc("test_queue_depth", "Live queue depth.", func() float64 { return depth })

	r.CollectCounters("test_worker_packets_total", "Per-worker packets.", func() []Sample {
		return []Sample{
			{Labels: []Label{L("worker", "0")}, Value: 10},
			{Labels: []Label{L("worker", "1")}, Value: 32},
		}
	})

	sk := sketch.New(0)
	for i := 1; i <= 50; i++ {
		sk.Add(float64(i))
	}
	r.CollectSummaries("test_shard_rtt_ms", "Per-shard RTT.", func() []Sample {
		return []Sample{{Labels: []Label{L("shard", "0")}, Sketch: sk}}
	})

	snap := r.Gather()
	if v, ok := snap.Get("test_queue_depth"); !ok || v != 3 {
		t.Fatalf("gauge func: got %v %v, want 3 true", v, ok)
	}
	if v, ok := snap.Get("test_worker_packets_total", L("worker", "1")); !ok || v != 32 {
		t.Fatalf("collected counter: got %v %v, want 32 true", v, ok)
	}

	// The gauge func is read per gather, not captured once.
	depth = 9
	if v, _ := r.Gather().Get("test_queue_depth"); v != 9 {
		t.Fatalf("gauge func rereads: got %v, want 9", v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`test_worker_packets_total{worker="0"} 10`,
		`test_shard_rtt_ms_count{shard="0"} 50`,
		`test_shard_rtt_ms{shard="0",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestQuantileCount pins the static summary's observation counter.
func TestQuantileCount(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile("test_lat_ms", "Latency.", 0)
	if q.Count() != 0 {
		t.Fatalf("fresh quantile count = %d, want 0", q.Count())
	}
	for i := 0; i < 17; i++ {
		q.Observe(float64(i))
	}
	if q.Count() != 17 {
		t.Fatalf("quantile count = %d, want 17", q.Count())
	}
}

// TestHandler serves the registry over HTTP and checks status,
// content type and body.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_hits_total", "Hits.").Add(5)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q, want %q", ct, ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(body), "test_hits_total 5") {
		t.Fatalf("body missing counter:\n%s", body)
	}
}
