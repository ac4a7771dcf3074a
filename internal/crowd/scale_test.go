package crowd

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/measure"
)

// --- spool segment rotation and compaction ---

// A tiny segment cap forces rotation; everything must replay across
// the resulting segment chain.
func TestSpoolRotationReplay(t *testing.T) {
	dir := t.TempDir()
	spool, rep, err := OpenSpoolOptions(dir, SpoolOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 {
		t.Fatalf("fresh spool segments: %d", rep.Segments)
	}
	for i := 0; i < 10; i++ {
		b := srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "app", float64(i+1)))
		if err := spool.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if spool.Segments() < 3 {
		t.Fatalf("no rotation at 256-byte cap: %d segments", spool.Segments())
	}
	spool.Close()

	_, rep2, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Batches) != 10 {
		t.Errorf("replayed %d of 10 batches across %d segments", len(rep2.Batches), rep2.Segments)
	}
	for i, b := range rep2.Batches {
		if b.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("replay order broken at %d: %q", i, b.Key)
		}
	}
	// ReadSpool (offline analysis) sees the same dataset.
	recs, err := ReadSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Errorf("offline read: %d records", len(recs))
	}
}

// Compact drops sealed segments but their keys keep absorbing
// redelivery — across a restart.
func TestSpoolCompact(t *testing.T) {
	dir := t.TempDir()
	spool, _, err := OpenSpoolOptions(dir, SpoolOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var batches []measure.Batch
	for i := 0; i < 8; i++ {
		b := srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "app", float64(i+1)))
		batches = append(batches, b)
		if err := spool.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	before := spool.Segments()
	if before < 2 {
		t.Fatalf("need sealed segments to compact, have %d", before)
	}
	segs, keys, err := spool.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if segs != before-1 {
		t.Errorf("compacted %d of %d sealed segments", segs, before-1)
	}
	if keys == 0 {
		t.Error("compaction preserved no keys")
	}
	if spool.Segments() != 1 {
		t.Errorf("segments after compact: %d", spool.Segments())
	}
	// A second compact with nothing sealed is a no-op.
	if segs, _, err := spool.Compact(); err != nil || segs != 0 {
		t.Errorf("idle compact: %d, %v", segs, err)
	}
	spool.Close()

	// Restart: compacted keys absorb redelivery even though their
	// records are gone.
	s, err := NewServer(ServerOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.DedupKeys(), 8; got != want {
		t.Errorf("dedup keys after compacted restart: %d, want %d", got, want)
	}
	if n := len(s.Records()); n >= 8 {
		t.Errorf("compacted records still replaying: %d", n)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, b := range batches {
		if resp := postBatch(t, ts, "", b, "p1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("redelivery of %s: %s", b.Key, resp.Status)
		}
	}
	if st := s.Stats(); st.Duplicates != 8 {
		t.Errorf("redelivered compacted keys not absorbed: %+v", st)
	}
}

// A server with a small segment cap rotates, compacts via
// CompactSpool, and still dedups after restart.
func TestServerSpoolSegmentsAndCompact(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(ServerOptions{SpoolDir: dir, SpoolSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	for i := 0; i < 8; i++ {
		b := srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "app", float64(i+1)))
		if resp := postBatch(t, ts1, "", b, "p1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	if segs, keys, err := s1.CompactSpool(); err != nil || segs == 0 || keys == 0 {
		t.Fatalf("server compact: segs=%d keys=%d err=%v", segs, keys, err)
	}
	ts1.Close()
	s1.Close()

	s2, err := NewServer(ServerOptions{SpoolDir: dir, SpoolSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DedupKeys(); got != 8 {
		t.Errorf("keys after restart: %d", got)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	b := srvBatch("p1", "k0", 0, srvRec("p1", "app", 1))
	postBatch(t, ts2, "", b, "p1")
	if st := s2.Stats(); st.Duplicates != 1 {
		t.Errorf("post-compact post-restart dedup: %+v", st)
	}
}

// --- retention modes and sketched aggregates ---

func TestServerRetainOff(t *testing.T) {
	s, err := NewServer(ServerOptions{RetainRecords: RetainOff})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 50; i++ {
		dev := fmt.Sprintf("p%d", i%5)
		b := srvBatch(dev, fmt.Sprintf("%s/k%d", dev, i), i, srvRec("", "com.app", float64(10+i)))
		if resp := postBatch(t, ts, "", b, dev); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	if recs := s.Records(); recs != nil {
		t.Errorf("retain-off server kept %d records", len(recs))
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/records")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retain-off /v1/records: %s", resp.Status)
	}
	// The sketched aggregates are all still there.
	sum := s.Summary()
	if sum.RetainRecords {
		t.Error("summary claims retention")
	}
	if sum.Stats.Records != 50 || sum.TCPRecords != 50 {
		t.Errorf("summary counts: %+v", sum.Stats)
	}
	qs, ok := sum.PerApp["com.app"]
	if !ok || qs.N != 50 {
		t.Fatalf("per-app sketch: %+v", sum.PerApp)
	}
	// Samples are 10..59 ms; the sketched median must sit inside with
	// 1% relative accuracy.
	if qs.P50MS < 33 || qs.P50MS > 36 {
		t.Errorf("sketched median of 10..59: %g", qs.P50MS)
	}
}

// The sketched per-app medians agree with the exact medians computed
// from the very records the server accepted, within alpha.
func TestServerSummaryVsExact(t *testing.T) {
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	apps := []string{"com.a", "com.b", "com.c"}
	for i := 0; i < 120; i++ {
		dev := fmt.Sprintf("p%d", i%7)
		app := apps[i%len(apps)]
		// Heavy-tailed-ish spread: keep the sketch honest.
		ms := 5 + float64(i%40)*float64(1+i%3)*3.5
		b := srvBatch(dev, fmt.Sprintf("%s/k%d", dev, i), i, srvRec("", app, ms))
		if resp := postBatch(t, ts, "", b, dev); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	exact := measure.AppMedians(s.Records(), 1)
	sum := s.Summary()
	sketched := sum.AppMedians(1)
	if len(sketched) != len(exact) {
		t.Fatalf("app sets differ: sketched %v exact %v", sketched, exact)
	}
	for app, want := range exact {
		got, ok := sketched[app]
		if !ok {
			t.Fatalf("app %s missing from sketch", app)
		}
		// Nearest-rank vs interpolated median differ by at most one
		// sample step; allow alpha plus a neighbouring-sample slack.
		if relErr(got, want) > 0.12 {
			t.Errorf("app %s: sketched median %g vs exact %g", app, got, want)
		}
		if ms, ok := s.AppMedianMS(app); !ok || ms != got {
			t.Errorf("AppMedianMS(%s) = %g, %v; summary says %g", app, ms, ok, got)
		}
	}
	if got := sum.TopApps(2); len(got) != 2 {
		t.Errorf("TopApps: %v", got)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// --- sharded ingest with per-shard spool chains ---

func shardedUpload(t *testing.T, ts *httptest.Server, token string, n int) []measure.Batch {
	t.Helper()
	var batches []measure.Batch
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("phone-%02d", i%13)
		b := srvBatch(dev, fmt.Sprintf("%s/k%d", dev, i), i,
			srvRec("", fmt.Sprintf("com.app%d", i%4), 5+float64(i%50)*2.5))
		batches = append(batches, b)
		if resp := postBatch(t, ts, token, b, dev); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, resp.Status)
		}
	}
	return batches
}

// A four-shard spooling collector accepts, dedups, and its merged
// Summary is identical to a one-shard Server fed the same batches —
// the fan-in over shards is exact.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	ss, err := NewServer(ServerOptions{IngestShards: 4, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ts := httptest.NewServer(ss)
	defer ts.Close()
	batches := shardedUpload(t, ts, "", 60)
	// Redeliver everything: all absorbed, none double-counted.
	for _, b := range batches {
		if resp := postBatch(t, ts, "", b, b.Device); resp.StatusCode != http.StatusOK {
			t.Fatalf("redelivery: %s", resp.Status)
		}
	}
	st := ss.Stats()
	if st.Batches != 60 || st.Duplicates != 60 || st.Records != 60 {
		t.Fatalf("sharded stats: %+v", st)
	}

	// Feed the identical batches to a one-shard Server and compare
	// summaries.
	ref, err := NewServer(ServerOptions{IngestShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref)
	defer tsRef.Close()
	for _, b := range batches {
		postBatch(t, tsRef, "", b, b.Device)
	}
	got, want := ss.Summary(), ref.Summary()
	if got.TCPRecords != want.TCPRecords || got.DNSRecords != want.DNSRecords {
		t.Errorf("kind counts: %+v vs %+v", got, want)
	}
	for app, w := range want.PerApp {
		g, ok := got.PerApp[app]
		if !ok {
			t.Fatalf("app %s missing from sharded summary", app)
		}
		// Bin-wise merge is exact: counts, quantiles, min and max are
		// bit-identical however the shards split; only the mean's
		// float additions reassociate.
		if g.N != w.N || g.P50MS != w.P50MS || g.P90MS != w.P90MS || g.P99MS != w.P99MS ||
			g.MinMS != w.MinMS || g.MaxMS != w.MaxMS {
			t.Errorf("app %s: sharded %+v vs unsharded %+v", app, g, w)
		}
		if relErr(g.MeanMS, w.MeanMS) > 1e-9 {
			t.Errorf("app %s mean: %g vs %g", app, g.MeanMS, w.MeanMS)
		}
	}

	// The merged record stream carries the full dataset (order is
	// shard-dependent; compare as sets).
	resp, err := ts.Client().Get(ts.URL + "/v1/records")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamed, err := measure.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecordSet(streamed, ref.Records()) {
		t.Error("sharded record stream diverges from the accepted dataset")
	}
	if !sameRecordSet(ss.Records(), ref.Records()) {
		t.Error("sharded Records() diverges from the accepted dataset")
	}
	if ds := ss.Ingest(); len(ds.Records) != 60 {
		t.Error("sharded ingest lost records")
	}
	if _, ok := ss.AppMedianMS("com.app1"); !ok {
		t.Error("AppMedianMS found nothing")
	}
	if ss.DedupKeys() != 60 {
		t.Errorf("dedup keys: %d", ss.DedupKeys())
	}
}

func sameRecordSet(a, b []measure.Record) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := recordKeys(a), recordKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func recordKeys(recs []measure.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s|%s|%s|%d", r.Device, r.App, r.RTT, r.UID)
	}
	sort.Strings(out)
	return out
}

// Each ingest shard spools in its own subdirectory, and the chains
// replay on restart with dedup intact.
func TestShardedServerSpoolRestart(t *testing.T) {
	dir := t.TempDir()
	ss1, err := NewServer(ServerOptions{IngestShards: 4, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(ss1)
	batches := shardedUpload(t, ts1, "", 20)
	ts1.Close()
	if err := ss1.Close(); err != nil {
		t.Fatal(err)
	}
	// One chain per shard, and none at the root.
	subdirs, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
	if len(subdirs) != 4 {
		t.Fatalf("shard spool dirs: %v", subdirs)
	}
	if _, err := os.Stat(filepath.Join(dir, spoolFile)); !os.IsNotExist(err) {
		t.Errorf("root-level chain written: %v", err)
	}

	ss2, err := NewServer(ServerOptions{IngestShards: 4, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if st := ss2.Stats(); st.Batches != 20 || st.Records != 20 {
		t.Fatalf("replayed sharded stats: %+v", st)
	}
	ts2 := httptest.NewServer(ss2)
	defer ts2.Close()
	for _, b := range batches[:5] {
		if resp := postBatch(t, ts2, "", b, b.Device); resp.StatusCode != http.StatusOK {
			t.Fatalf("redelivery: %s", resp.Status)
		}
	}
	if st := ss2.Stats(); st.Duplicates != 5 || st.Batches != 20 {
		t.Errorf("post-restart sharded dedup: %+v", st)
	}
	// Compaction sweeps every shard without error.
	if _, _, err := ss2.CompactSpool(); err != nil {
		t.Errorf("sharded compact: %v", err)
	}
}

func TestShardedServerAuthAndRetainOff(t *testing.T) {
	ss, err := NewServer(ServerOptions{Token: "tok", RetainRecords: RetainOff, IngestShards: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ts := httptest.NewServer(ss)
	defer ts.Close()

	b := srvBatch("p1", "k1", 1, srvRec("", "a", 7))
	if resp := postBatch(t, ts, "wrong", b, "p1"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token upload: %s", resp.Status)
	}
	if resp := postBatch(t, ts, "tok", b, "p1"); resp.StatusCode != http.StatusOK {
		t.Errorf("honest upload: %s", resp.Status)
	}
	// Merged reads sit behind the token too.
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless stats: %s", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/records", nil)
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retain-off sharded records: %s", resp.Status)
	}
	// Health stays open.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health: %s", resp.Status)
	}
}

// Device-stamp hashing spreads a fleet roster across shards instead of
// piling onto a few.
func TestHashDeviceSpread(t *testing.T) {
	const shards = 16
	counts := make([]int, shards)
	for i := 0; i < 1600; i++ {
		counts[hashDevice(fmt.Sprintf("phone-%04d", i))&(shards-1)]++
	}
	for i, c := range counts {
		if c < 50 || c > 200 {
			t.Errorf("shard %d holds %d of 1600 structured stamps", i, c)
		}
	}
	// Same stamp, same shard — the dedup invariant.
	if hashDevice("phone-0007") != hashDevice("phone-0007") {
		t.Error("hash is not stable")
	}
}

// The legacy single-file spool (pre-rotation layout) still opens and
// replays: segment 0 keeps the old name.
func TestSpoolLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	// Write a legacy spool by hand: one file, wire-encoded batches.
	f, err := os.Create(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := measure.EncodeBatch(f, srvBatch("p1", fmt.Sprintf("k%d", i), i, srvRec("p1", "a", 1))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	_, rep, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != 3 || rep.Segments != 1 {
		t.Errorf("legacy replay: %d batches, %d segments", len(rep.Batches), rep.Segments)
	}
}
