package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/internal/sketch"
	"repro/mopeye"
)

// ingest-spool: the collector alone. One HTTPTransport per generator
// uploads 8-record batches for a fixed synthetic fleet through its own
// single connection, redelivers every 20th batch, and interleaves
// GET /v1/stats reads on the same connection. The collector keeps no
// raw records and spools every accepted batch to a directory. The
// records are the paper-calibrated crowd dataset (paperRecords), so the
// app population, the TCP/DNS mix and the RTTs the sketches and stats
// reads see are the paper's.

const (
	ingestDevices      = 30_000
	ingestRecords      = 8    // per batch
	ingestDupEvery     = 20   // every Nth unique batch is redelivered
	ingestStatsEvery   = 1000 // one stats read per this many uploads
	ingestWarmBatches  = 256
	ingestFillRecords  = 64 // records per batch of the warm-up's pass over the population
	ingestMaxAttempts  = 6
	ingestSpanIDHeader = "X-Perfbench-Span"
)

// paperScale is the share of the paper's 5.25M-measurement dataset that
// paperRecords generates: 52.5k records over 2,269 apps at the default
// seed, which the uploaders cycle through.
const paperScale = 0.01

var paperCache struct {
	sync.Mutex
	seed int64
	recs []measure.Record
}

// paperRecords returns the measurement population ingest-spool uploads
// and the collector replays draw from: crowd.Generate's dataset, whose
// app volumes, network mix, TCP/DNS split and RTTs are calibrated to the
// paper's published marginals (Figures 6-11). It is generated once per
// process and seed, before any set-up is timed.
func paperRecords(seed int64) []measure.Record {
	paperCache.Lock()
	defer paperCache.Unlock()
	if paperCache.recs == nil || paperCache.seed != seed {
		paperCache.seed = seed
		paperCache.recs = crowd.Generate(crowd.Config{Scale: paperScale, Seed: seed}).Records
	}
	return paperCache.recs
}

type ingest struct {
	env   env
	dir   string
	srv   *crowd.Server
	h     *servedHandler
	hs    *http.Server
	url   string
	ups   []*uploader
	recs  []measure.Record
	plant atomic.Bool // self-test: send one redelivery the gate is not told of
}

// servedHandler wraps crowd.Server.ServeHTTP so the traced run records
// the collector's own time as a child of the request that caused it.
type servedHandler struct {
	srv *crowd.Server
	buf atomic.Pointer[spanBuf]
}

func (h *servedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b := h.buf.Load()
	if b == nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.srv.ServeHTTP(w, r)
	t1 := time.Now()
	parent, _ := strconv.ParseInt(r.Header.Get(ingestSpanIDHeader), 10, 64) // untagged requests have no parent
	name := "crowd.serve"
	if r.URL.Path == "/v1/stats" {
		name = "crowd.stats"
	}
	b.add(0, parent, name, t0, t1)
}

// tagRT stamps each request with the span id of the client call in
// flight, so server spans can name their parent.
type tagRT struct {
	base   http.RoundTripper
	parent *atomic.Int64
}

func (t tagRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.parent.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(ingestSpanIDHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

type attempt struct {
	d   time.Duration
	end time.Time
	err error
}

// uploader is one generator: its own connection, transport, device
// slice of the fleet, and client-side record of what it delivered.
type uploader struct {
	idx    int
	client *http.Client
	tp     *mopeye.HTTPTransport
	acks   chan attempt
	parent atomic.Int64
	lo, hi int
	next   int // batches built so far
	cursor int // next record of the population to upload

	unique, redelivered, acked int64
	records                    int64 // records in unique batches
	appRTTs                    map[string][]float64
	enc                        bytes.Buffer
}

func newIngest(e env) (system, error) {
	dir, err := os.MkdirTemp(e.workdir, "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := crowd.NewServer(crowd.ServerOptions{
		SpoolDir:      dir,
		IngestShards:  crowd.DefaultIngestShards,
		RetainRecords: crowd.RetainOff,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	in := &ingest{env: e, dir: dir, srv: srv, h: &servedHandler{srv: srv}, url: "http://" + ln.Addr().String(),
		recs: paperRecords(e.seed)}
	in.hs = &http.Server{Handler: in.h}
	go in.hs.Serve(ln) // returns http.ErrServerClosed once close shuts the server down
	rng := rand.New(rand.NewSource(e.seed))
	for g := 0; g < e.gens; g++ {
		u := &uploader{
			idx:     g,
			acks:    make(chan attempt, ingestMaxAttempts), // one slot per attempt of the batch in flight
			cursor:  rng.Intn(len(in.recs)),
			lo:      g * ingestDevices / e.gens,
			hi:      (g + 1) * ingestDevices / e.gens,
			appRTTs: map[string][]float64{},
		}
		u.client = &http.Client{
			Timeout: 10 * time.Second,
			Transport: tagRT{
				base:   &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
				parent: &u.parent,
			},
		}
		u.tp = mopeye.NewHTTPTransport(in.url, mopeye.HTTPTransportOptions{
			Client:      u.client,
			QueueSize:   1,
			MaxAttempts: ingestMaxAttempts,
			BlockOnFull: true,
			OnAttempt: func(d time.Duration, err error) {
				u.acks <- attempt{d: d, end: time.Now(), err: err}
			},
		})
		in.ups = append(in.ups, u)
	}
	return in, nil
}

// nextBatch builds the uploader's next unique batch from the next eight
// records of the population.
func (in *ingest) nextBatch(u *uploader) measure.Batch {
	recs := make([]measure.Record, ingestRecords)
	for k := range recs {
		recs[k] = in.recs[u.cursor]
		u.cursor = (u.cursor + 1) % len(in.recs)
	}
	return u.batch(recs)
}

// batch stamps recs as the uploader's next unique batch: device i of its
// slice of the fleet, with the device's next sequence number.
func (u *uploader) batch(recs []measure.Record) measure.Batch {
	span := u.hi - u.lo
	dev := u.lo + u.next%span
	seq := u.next / span
	u.next++
	device := "sim-" + strconv.Itoa(dev)
	for k := range recs {
		recs[k].Device = device
	}
	return measure.Batch{Device: device, Key: device + "/b" + strconv.Itoa(seq), Seq: seq, Records: recs}
}

// accepted notes a unique batch the collector acknowledged, keeping its
// TCP RTTs for the median gate.
func (u *uploader) accepted(b measure.Batch) {
	u.unique++
	u.records += int64(len(b.Records))
	for _, rec := range b.Records {
		if rec.Kind == measure.KindTCP {
			u.appRTTs[rec.App] = append(u.appRTTs[rec.App], rec.Millis())
		}
	}
}

// upload delivers one batch and waits for the collector's answer (a
// closed loop), recording every attempt's latency.
func (in *ingest) upload(ctx context.Context, u *uploader, b measure.Batch, r *genResult, sb *spanBuf) error {
	r.attempted++
	id := sb.newID()
	u.parent.Store(id)
	failedBefore := u.tp.Stats().Failed
	if err := u.tp.Upload(ctx, b); err != nil {
		r.fail("upload", err)
		return err
	}
	var lastErr error
	for {
		var a attempt
		if lastErr == nil {
			a = <-u.acks
		} else {
			// A failed attempt is retried unless it was terminal, which
			// shows only in the transport's Failed count.
			select {
			case a = <-u.acks:
			case <-time.After(20 * time.Millisecond):
				if u.tp.Stats().Failed > failedBefore {
					r.fail("upload", lastErr)
					return lastErr
				}
				continue
			}
		}
		sb.add(id, 0, "transport.http", a.end.Add(-a.d), a.end)
		id = 0 // a retry is a span of its own
		if a.err == nil {
			r.primary = append(r.primary, a.d)
			u.acked++
			return nil
		}
		lastErr = a.err
	}
}

// statsRead fetches /v1/stats on the uploader's connection.
func (in *ingest) statsRead(u *uploader, r *genResult, sb *spanBuf) {
	r.attempted++
	id := sb.newID()
	u.parent.Store(id)
	k0, t0 := readTicks(), time.Now()
	sum, err := mopeye.FetchCollectorStats(u.client, in.url, "")
	t1, k1 := time.Now(), readTicks()
	sb.add(id, 0, "client.stats_read", t0, t1)
	switch {
	case err != nil:
		r.fail("stats read", err)
	case sum.Stats.Batches == 0 || sum.TCPRecords == 0 || sum.RetainRecords:
		r.violate("ingest-spool: /v1/stats answered %+v during ingest", sum.Stats)
	default:
		// A read is tens of milliseconds of CPU-bound merging and JSON, so
		// it absorbs the machine's stolen share while it runs: its time is
		// taken over the time the virtual CPUs ran, like throughput.
		d := t1.Sub(t0)
		r.side = append(r.side, time.Duration(float64(d)*(1-stealShare(k0, k1))))
		r.sideRaw = append(r.sideRaw, d)
	}
}

// loop runs one uploader until stop reports true for its upload count.
func (in *ingest) loop(u *uploader, stop func(n int) bool, r *genResult, tr *tracer) {
	sb := tr.buf(false)
	ctx := context.Background()
	for n := 0; !stop(n); n++ {
		b := in.nextBatch(u)
		if sb != nil {
			u.enc.Reset()
			t0 := time.Now()
			if err := measure.EncodeBatch(&u.enc, b); err != nil {
				r.violate("ingest-spool: encoding batch %s: %v", b.Key, err)
			}
			sb.add(0, 0, "measure.encode_batch", t0, time.Now())
		}
		if in.upload(ctx, u, b, r, sb) != nil {
			continue
		}
		u.accepted(b)
		if in.plant.CompareAndSwap(true, false) {
			// An uncounted redelivery: the exactly-once gate must see the
			// collector's duplicate count disagree with the generators'.
			in.upload(ctx, u, b, r, sb)
		}
		if u.unique%ingestDupEvery == 0 {
			if in.upload(ctx, u, b, r, sb) == nil {
				u.redelivered++
			}
		}
		if n%ingestStatsEvery == ingestStatsEvery-1 {
			in.statsRead(u, r, sb)
		}
	}
}

func (in *ingest) run(stop func(n int) bool, tr *tracer) []*genResult {
	return fanOut(len(in.ups), func(g int, r *genResult) { in.loop(in.ups[g], stop, r, tr) })
}

// warm uploads the whole population once, in larger batches, so the
// collector holds a sketch for every app and network before timing and
// a stats read costs the same from the first timed one; then it runs
// the closed loop for a fixed number of uploads.
func (in *ingest) warm() error {
	fill := fanOut(len(in.ups), func(g int, r *genResult) {
		lo, hi := g*len(in.recs)/len(in.ups), (g+1)*len(in.recs)/len(in.ups)
		for i := lo; i < hi; i += ingestFillRecords {
			b := in.ups[g].batch(append([]measure.Record(nil), in.recs[i:min(i+ingestFillRecords, hi)]...))
			if in.upload(context.Background(), in.ups[g], b, r, nil) == nil {
				in.ups[g].accepted(b)
			}
		}
	})
	if err := warmErr("ingest-spool", fill); err != nil {
		return err
	}
	return warmErr("ingest-spool", in.run(func(n int) bool { return n >= ingestWarmBatches }, nil))
}

type transportTotals struct{ retried, dropped uint64 }

func (in *ingest) transportTotals() transportTotals {
	var t transportTotals
	for _, u := range in.ups {
		s := u.tp.Stats()
		t.retried += s.Retried
		t.dropped += s.Dropped
	}
	return t
}

func (in *ingest) drive(deadline time.Time, tr *tracer) *phase {
	in.plant.Store(in.env.plant)
	in.h.buf.Store(tr.buf(true))
	defer in.h.buf.Store(nil)
	a, ta := in.srv.Stats(), in.transportTotals()
	start := time.Now()
	gens := in.run(func(int) bool { return !time.Now().Before(deadline) }, tr)
	p := &phase{elapsed: time.Since(start)}
	b, tb := in.srv.Stats(), in.transportTotals()
	mergeGens(p, gens)
	p.layers = map[string]float64{
		"crowd.dedup_hits":  float64(b.Duplicates - a.Duplicates),
		"transport.retries": float64(tb.retried - ta.retried),
		"transport.dropped": float64(tb.dropped - ta.dropped),
	}
	return p
}

// check verifies exactly-once ingest and the sketched medians against
// the exact nearest-rank medians of what was delivered.
func (in *ingest) check() []string {
	var v []string
	var unique, records, dups int64
	exact := map[string][]float64{}
	for _, u := range in.ups {
		unique += u.unique
		records += u.records
		dups += u.redelivered
		st := u.tp.Stats()
		if st.Failed != 0 || st.Dropped != 0 {
			v = append(v, fmt.Sprintf("transport %d lost batches: failed %d, dropped %d", u.idx, st.Failed, st.Dropped))
		}
		if st.Uploaded != uint64(u.acked) {
			v = append(v, fmt.Sprintf("transport %d acknowledged %d uploads, the generator saw %d", u.idx, st.Uploaded, u.acked))
		}
		for app, xs := range u.appRTTs {
			exact[app] = append(exact[app], xs...)
		}
	}
	st := in.srv.Stats()
	if int64(st.Batches) != unique || int64(st.Records) != records || int64(st.Duplicates) != dups {
		v = append(v, fmt.Sprintf("collector holds %d batches / %d records / %d duplicates, generators delivered %d / %d / %d",
			st.Batches, st.Records, st.Duplicates, unique, records, dups))
	}
	if st.AuthFailures != 0 || st.BadRequests != 0 {
		v = append(v, fmt.Sprintf("collector refused uploads: %d auth failures, %d bad requests", st.AuthFailures, st.BadRequests))
	}
	alpha := sketch.DefaultAlpha
	for app, xs := range exact {
		sort.Float64s(xs)
		want := xs[(len(xs)-1)/2]
		got, ok := in.srv.AppMedianMS(app)
		if !ok || math.Abs(got-want) > alpha*want*(1+1e-9) {
			v = append(v, fmt.Sprintf("%s: sketched median %.4f ms, exact nearest-rank median %.4f ms (alpha %g)", app, got, want, alpha))
		}
	}
	return v
}

func (in *ingest) shape() shape { return shape{} }

func (in *ingest) units() float64 { return float64(in.srv.Stats().Records) }

func (in *ingest) close() {
	var errs []error
	for _, u := range in.ups {
		errs = append(errs, u.tp.Close())
		u.client.CloseIdleConnections()
	}
	errs = append(errs, in.hs.Close(), in.srv.Close(), os.RemoveAll(in.dir))
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ingest-spool teardown:", err)
	}
}
