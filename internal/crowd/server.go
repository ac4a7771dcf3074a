package crowd

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

// Server is the collector side of the crowdsourcing wire protocol:
// the net/http handler behind `cmd/collectord`. Phones POST batches
// (measure wire encoding) to /v1/upload; the server authenticates the
// device stamp (and the shared token, when configured), deduplicates
// on the batch idempotency key, appends accepted batches to a durable
// spool, and maintains streaming per-app/per-network quantile sketches
// so /v1/stats answers in O(sketch) regardless of dataset size.
// Exactly-once records from at-least-once delivery: the upload
// transport retries freely, the key dedup makes redelivery harmless.
//
// Ingest state is sharded by device-stamp hash (the flowtable
// discipline applied to the collector): each internal shard owns its
// dedup keys, sketch state, optional raw records, and spool segment
// chain behind its own mutex, so uploads from different devices never
// serialize on one lock or one file. A batch's device decides its
// shard, and a batch's idempotency key is only ever checked against
// its own device's shard — consistent because retries of a batch carry
// the same device stamp.

// Upload protocol headers.
const (
	// DeviceHeader carries the uploading phone's device stamp; it must
	// be present and match the batch header's device.
	DeviceHeader = "X-Mopeye-Device"
)

// DefaultIngestShards is the internal lock-shard count used when
// ServerOptions.IngestShards <= 0.
const DefaultIngestShards = 16

// RetainMode selects whether the server keeps raw records in memory.
type RetainMode int

const (
	// RetainDefault keeps raw records (the seed behaviour): /v1/records,
	// Records() and Ingest() serve the full dataset.
	RetainDefault RetainMode = iota
	// RetainOff drops raw records after they feed the sketches: memory
	// stays O(devices + apps) at any ingest volume, /v1/records answers
	// 404, and only the sketched aggregates remain queryable. The load
	// harness and fleet-scale deployments run here.
	RetainOff
	// RetainOn is RetainDefault, spelled explicitly.
	RetainOn
)

// ServerOptions configures a collector server.
type ServerOptions struct {
	// SpoolDir, when non-empty, is the durable spool directory: every
	// accepted batch is appended to its ingest shard's segment chain
	// under <SpoolDir>/shard-NNN, and every chain found there is
	// replayed at construction (records and dedup keys both survive a
	// restart; see openSpools). Empty keeps the dataset memory-only.
	SpoolDir string
	// Token, when non-empty, is the shared bearer token every request
	// must present ("Authorization: Bearer <token>").
	Token string
	// MaxBatchBytes bounds one upload body. Default 8 MiB.
	MaxBatchBytes int64
	// IngestShards is the internal lock-shard count (rounded up to a
	// power of two). <= 0 selects DefaultIngestShards.
	IngestShards int
	// RetainRecords controls raw-record retention; the default retains
	// (see RetainMode).
	RetainRecords RetainMode
	// SpoolSegmentBytes caps one spool segment file; <= 0 selects
	// DefaultSegmentBytes.
	SpoolSegmentBytes int64
	// SketchAlpha is the aggregation sketches' relative accuracy;
	// <= 0 selects sketch.DefaultAlpha.
	SketchAlpha float64
	// ExposeMetrics registers GET /metrics (Prometheus text exposition)
	// on the server. The endpoint is exempt from the token gate, like
	// /healthz: scrapers are part of the ops plane, and the exposition
	// carries aggregates, not records.
	ExposeMetrics bool
}

func (o *ServerOptions) retain() bool { return o.RetainRecords != RetainOff }

func (o *ServerOptions) alpha() float64 {
	if o.SketchAlpha <= 0 {
		return sketch.DefaultAlpha
	}
	return o.SketchAlpha
}

// ServerStats counts what the server has seen.
type ServerStats struct {
	// Batches accepted (excluding duplicates), and Records within them.
	Batches int
	Records int
	// Duplicates is redelivered batches absorbed by key dedup.
	Duplicates int
	// AuthFailures counts rejected tokens and device-stamp mismatches.
	AuthFailures int
	// BadRequests counts malformed uploads.
	BadRequests int
}

// serverCounters is ServerStats maintained as atomics, so the upload
// hot path and stats snapshots never touch a lock for counting.
type serverCounters struct {
	batches      atomic.Int64
	records      atomic.Int64
	duplicates   atomic.Int64
	authFailures atomic.Int64
	badRequests  atomic.Int64
}

func (c *serverCounters) snapshot() ServerStats {
	return ServerStats{
		Batches:      int(c.batches.Load()),
		Records:      int(c.records.Load()),
		Duplicates:   int(c.duplicates.Load()),
		AuthFailures: int(c.authFailures.Load()),
		BadRequests:  int(c.badRequests.Load()),
	}
}

// ingestShard is one lock domain of the server's ingest state: the
// dedup keys, sketches, (when retained) raw records, and spool chain
// of the devices hashing here.
type ingestShard struct {
	mu   sync.Mutex
	keys map[string]struct{}
	recs []measure.Record
	agg  *agg
	// spool is the shard's own segment chain (nil when memory-only).
	// Appends happen under mu, so the chain holds each device's batches
	// in commit order.
	spool *Spool

	// recCount counts records committed to this shard over its lifetime
	// (independent of retention, unlike len(recs)). Atomic so the
	// metrics scrape can read per-shard skew without taking shard locks.
	recCount atomic.Int64
}

// hashDevice returns a stable 64-bit hash of a device stamp (FNV-1a
// with a murmur-style avalanche finisher — the same construction as
// flowtable.Hash, for the same reason: device stamps are structured
// strings like "phone-07", and plain FNV's low bits are too regular on
// such inputs to spread shards evenly).
func hashDevice(device string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(device); i++ {
		h ^= uint64(device[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Server is the HTTP collector. It implements http.Handler.
type Server struct {
	o   ServerOptions
	mux *http.ServeMux

	shards []ingestShard
	mask   uint64
	c      serverCounters

	// metrics is built lazily on first use (metrics.go); all its
	// instruments are scrape-time reads over the state above.
	metricsOnce sync.Once
	metricsReg  *metrics.Registry
}

// NewServer builds a collector server, replaying the spool when one is
// configured.
func NewServer(o ServerOptions) (*Server, error) {
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 8 << 20
	}
	n := o.IngestShards
	if n <= 0 {
		n = DefaultIngestShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Server{o: o, shards: make([]ingestShard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].keys = make(map[string]struct{})
		s.shards[i].agg = newAgg(o.alpha())
	}
	if o.SpoolDir != "" {
		if err := s.openSpools(); err != nil {
			s.Close()
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/upload", s.handleUpload)
	mux.HandleFunc("GET /v1/records", s.handleRecords)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if o.ExposeMetrics {
		mux.Handle("GET /metrics", s.MetricsHandler())
	}
	s.mux = mux
	return s, nil
}

// shard returns the ingest shard owning a device stamp.
func (s *Server) shard(device string) *ingestShard {
	return &s.shards[hashDevice(device)&s.mask]
}

// commit folds one accepted batch into a shard's state. The caller
// holds sh.mu (or, during construction, has exclusive access).
func (s *Server) commit(sh *ingestShard, b measure.Batch) {
	sh.keys[b.Key] = struct{}{}
	stamped := stampRecords(b)
	for _, r := range stamped {
		sh.agg.observe(r)
	}
	if s.o.retain() {
		sh.recs = append(sh.recs, stamped...)
	}
	sh.recCount.Add(int64(len(b.Records)))
	s.c.batches.Add(1)
	s.c.records.Add(int64(len(b.Records)))
}

// ServeHTTP dispatches the collector API. The health probe is exempt
// from the token gate — liveness checkers rarely carry credentials,
// and an unauthenticated "ok" reveals nothing about the dataset. The
// metrics endpoint (when exposed) sits on the same ops plane.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.o.Token != "" && r.URL.Path != "/healthz" &&
		!(s.o.ExposeMetrics && r.URL.Path == "/metrics") && !authorized(r, s.o.Token) {
		s.c.authFailures.Add(1)
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// authorized checks a shared bearer token in constant time.
func authorized(r *http.Request, token string) bool {
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// uploadReply is the /v1/upload response body.
type uploadReply struct {
	Status  string `json:"status"` // "accepted" or "duplicate"
	Records int    `json:"records"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	// Device-stamp authentication: an upload must declare who it is
	// for, and the declaration must match the signed batch header — a
	// mislabelled relay cannot attribute records to another phone.
	device := r.Header.Get(DeviceHeader)
	if device == "" {
		s.c.authFailures.Add(1)
		http.Error(w, "missing "+DeviceHeader, http.StatusForbidden)
		return
	}
	b, err := measure.DecodeBatch(http.MaxBytesReader(w, r.Body, s.o.MaxBatchBytes))
	if err != nil {
		s.c.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if b.Device != device {
		s.c.authFailures.Add(1)
		http.Error(w, "device stamp mismatch", http.StatusForbidden)
		return
	}

	// Only this device's shard locks: uploads from devices hashing to
	// other shards proceed concurrently, each through its own shard's
	// spool chain.
	sh := s.shard(b.Device)
	sh.mu.Lock()
	if _, dup := sh.keys[b.Key]; dup {
		sh.mu.Unlock()
		s.c.duplicates.Add(1)
		writeJSON(w, uploadReply{Status: "duplicate"})
		return
	}
	// Spool first, then commit: a failed append leaves the key unseen,
	// so the phone's retry gets another chance at durability. The shard
	// lock is held across the append to keep spool order and commit
	// order identical per device — the replay-equals-live invariant.
	if sh.spool != nil {
		if err := sh.spool.Append(b); err != nil {
			sh.mu.Unlock()
			http.Error(w, "spool: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.commit(sh, b)
	sh.mu.Unlock()
	writeJSON(w, uploadReply{Status: "accepted", Records: len(b.Records)})
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	if !s.o.retain() {
		http.Error(w, "record retention disabled (RetainRecords=off); only /v1/stats aggregates exist", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	enc := measure.NewJSONLEncoder(w)
	if err := s.streamRecords(enc); err != nil {
		// Mid-stream failure; the status line is already gone.
		return
	}
	enc.Flush()
}

// streamRecords writes every retained record, shard by shard, without
// ever copying the dataset: each shard's slice is snapshotted under
// its lock (records already appended are immutable, so the snapshot
// stays valid while later uploads append beyond it) and encoded
// outside the lock.
func (s *Server) streamRecords(enc *measure.JSONLEncoder) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snap := sh.recs[:len(sh.recs):len(sh.recs)]
		sh.mu.Unlock()
		for _, r := range snap {
			if err := enc.Write(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Summary())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Records returns a copy of the accepted dataset, shard by shard (each
// shard in arrival order), device-stamped. Nil when retention is off.
func (s *Server) Records() []measure.Record {
	if !s.o.retain() {
		return nil
	}
	out := make([]measure.Record, 0, s.c.records.Load())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = append(out, sh.recs...)
		sh.mu.Unlock()
	}
	return out
}

// Ingest assembles the accepted dataset for the §4.2 analysis
// pipeline — what `crowdstudy -serve` runs against a live collector.
// With retention off the dataset is empty; use Summary instead.
func (s *Server) Ingest() *Dataset {
	return Ingest(s.Records())
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return s.c.snapshot()
}

// mergedAgg folds every shard's aggregation state into one, shard
// locks taken one at a time. O(shards × apps × sketch bins).
func (s *Server) mergedAgg() *agg {
	dst := newAgg(s.o.alpha())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst.merge(sh.agg)
		sh.mu.Unlock()
	}
	return dst
}

// Summary assembles the sketched /v1/stats document. Cost is
// independent of dataset size.
func (s *Server) Summary() Summary {
	a := s.mergedAgg()
	perApp, perNet := a.render()
	return Summary{
		Stats:            s.Stats(),
		TCPRecords:       a.tcp,
		DNSRecords:       a.dns,
		RelativeAccuracy: s.o.alpha(),
		Shards:           len(s.shards),
		RetainRecords:    s.o.retain(),
		PerApp:           perApp,
		PerNet:           perNet,
	}
}

// AppMedianMS returns an app's sketched median TCP connect RTT in
// milliseconds, merging only that app's per-shard sketches —
// O(shards × sketch bins), no dataset scan. ok reports whether the
// app has any measurements.
func (s *Server) AppMedianMS(app string) (ms float64, ok bool) {
	merged := sketch.New(s.o.alpha())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sk := sh.agg.perApp[app]; sk != nil {
			merged.Merge(sk)
		}
		sh.mu.Unlock()
	}
	if merged.Count() == 0 {
		return 0, false
	}
	return merged.Median(), true
}

// DedupKeys reports how many idempotency keys the server holds — the
// dedup-map footprint the load harness tracks.
func (s *Server) DedupKeys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += len(sh.keys)
		sh.mu.Unlock()
	}
	return total
}

// CompactSpool drops the sealed segments of every shard chain
// (preserving their dedup keys; see Spool.Compact), totalling segments
// dropped and keys preserved; the first error stops the sweep.
// Read-only chains are left as they are. A memory-only server reports
// zeros.
func (s *Server) CompactSpool() (segments, keys int, err error) {
	for i := range s.shards {
		sp := s.shards[i].spool
		if sp == nil {
			continue
		}
		sg, k, err := sp.Compact()
		segments += sg
		keys += k
		if err != nil {
			return segments, keys, err
		}
	}
	return segments, keys, nil
}

// spoolStats totals the on-disk footprint of the shard chains.
func (s *Server) spoolStats() SpoolStats {
	var st SpoolStats
	for i := range s.shards {
		if sp := s.shards[i].spool; sp != nil {
			ss := sp.Stats()
			st.Segments += ss.Segments
			st.Bytes += ss.Bytes
		}
	}
	return st
}

// Close releases every shard's spool chain, returning the first error
// (accepted data stays readable in memory).
func (s *Server) Close() error {
	var first error
	for i := range s.shards {
		if sp := s.shards[i].spool; sp != nil {
			if err := sp.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
