package crowd

import (
	"sort"

	"repro/internal/measure"
	"repro/internal/sketch"
)

// This file is the collector's streaming aggregation state: the
// per-app and per-network-type quantile sketches (plus counters) that
// are maintained incrementally on each accepted batch, so that
// /v1/stats and per-app median queries are O(sketch) instead of
// O(dataset). Sketches merge exactly (bin-wise), which is what lets
// the per-shard states inside one Server fan into a single truthful
// Summary.

// agg is one ingest shard's aggregation state. It is guarded by the
// owning shard's mutex; merging reads it without mutating.
type agg struct {
	alpha float64
	tcp   uint64
	dns   uint64
	// perApp sketches TCP connect RTTs (ms) by app package — the
	// figure 9(b)/Table 5 dimension.
	perApp map[string]*sketch.Sketch
	// perNet sketches RTTs (ms) by measure.Record.NetKey()
	// ("TCP/WiFi", "DNS/LTE", ...) — the figure 9(a)/10 dimension.
	perNet map[string]*sketch.Sketch
}

func newAgg(alpha float64) *agg {
	return &agg{
		alpha:  alpha,
		perApp: make(map[string]*sketch.Sketch),
		perNet: make(map[string]*sketch.Sketch),
	}
}

// observe folds one accepted record into the shard's sketches.
func (a *agg) observe(r measure.Record) {
	ms := r.Millis()
	if r.Kind == measure.KindTCP {
		a.tcp++
		sk := a.perApp[r.App]
		if sk == nil {
			sk = sketch.New(a.alpha)
			a.perApp[r.App] = sk
		}
		sk.Add(ms)
	} else {
		a.dns++
	}
	key := r.NetKey()
	sk := a.perNet[key]
	if sk == nil {
		sk = sketch.New(a.alpha)
		a.perNet[key] = sk
	}
	sk.Add(ms)
}

// merge folds o into a without mutating o (sketch.Merge copies bins).
func (a *agg) merge(o *agg) {
	a.tcp += o.tcp
	a.dns += o.dns
	for app, sk := range o.perApp {
		dst := a.perApp[app]
		if dst == nil {
			dst = sketch.New(a.alpha)
			a.perApp[app] = dst
		}
		dst.Merge(sk)
	}
	for key, sk := range o.perNet {
		dst := a.perNet[key]
		if dst == nil {
			dst = sketch.New(a.alpha)
			a.perNet[key] = dst
		}
		dst.Merge(sk)
	}
}

// QuantileSummary is one sketch rendered for the stats document.
type QuantileSummary struct {
	N      uint64  `json:"n"`
	MinMS  float64 `json:"min_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

func quantileSummary(sk *sketch.Sketch) QuantileSummary {
	return QuantileSummary{
		N:      sk.Count(),
		MinMS:  sk.Min(),
		P50MS:  sk.Quantile(0.5),
		P90MS:  sk.Quantile(0.9),
		P99MS:  sk.Quantile(0.99),
		MaxMS:  sk.Max(),
		MeanMS: sk.Mean(),
	}
}

// Summary is the `GET /v1/stats` document: the server counters plus
// the sketched per-app and per-network aggregates. Assembling it costs
// O(shards × apps × sketch bins) — independent of how many records
// ever streamed through the collector.
type Summary struct {
	Stats ServerStats `json:"stats"`
	// TCPRecords and DNSRecords split Stats.Records by kind.
	TCPRecords uint64 `json:"tcp_records"`
	DNSRecords uint64 `json:"dns_records"`
	// RelativeAccuracy is the sketches' alpha: every quantile below is
	// within this relative error of the exact dataset quantile.
	RelativeAccuracy float64 `json:"relative_accuracy"`
	// Shards is the ingest parallelism behind this summary: the
	// server's lock shards, one spool chain each.
	Shards int `json:"shards"`
	// RetainRecords reports whether /v1/records can serve the raw
	// dataset, or only these aggregates exist.
	RetainRecords bool `json:"retain_records"`
	// PerApp holds TCP connect-RTT quantiles by app package.
	PerApp map[string]QuantileSummary `json:"per_app,omitempty"`
	// PerNet holds RTT quantiles by "<kind>/<nettype>" key.
	PerNet map[string]QuantileSummary `json:"per_net,omitempty"`
}

// render converts the merged aggregation state into the wire form.
func (a *agg) render() (perApp, perNet map[string]QuantileSummary) {
	perApp = make(map[string]QuantileSummary, len(a.perApp))
	for app, sk := range a.perApp {
		perApp[app] = quantileSummary(sk)
	}
	perNet = make(map[string]QuantileSummary, len(a.perNet))
	for key, sk := range a.perNet {
		perNet[key] = quantileSummary(sk)
	}
	return perApp, perNet
}

// AppMedians extracts each app's sketched median from a summary —
// the O(sketch) counterpart of measure.AppMedians over raw records —
// for apps with at least minN measurements.
func (s Summary) AppMedians(minN int) map[string]float64 {
	out := make(map[string]float64)
	for app, qs := range s.PerApp {
		if qs.N >= uint64(minN) {
			out[app] = qs.P50MS
		}
	}
	return out
}

// TopApps returns the n busiest apps by TCP measurement count, ties
// broken lexicographically — a stable shortlist for dashboards.
func (s Summary) TopApps(n int) []string {
	apps := make([]string, 0, len(s.PerApp))
	for app := range s.PerApp {
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool {
		ni, nj := s.PerApp[apps[i]].N, s.PerApp[apps[j]].N
		if ni != nj {
			return ni > nj
		}
		return apps[i] < apps[j]
	})
	if len(apps) > n {
		apps = apps[:n]
	}
	return apps
}
