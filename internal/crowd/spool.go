package crowd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/measure"
)

// The spool is the collector server's durable store: every accepted
// batch is appended in the batch wire format (measure.EncodeBatch), so
// the log is simultaneously the dedup journal (keys replay with the
// batches) and the dataset (records replay in arrival order).
//
// The log is a sequence of size-capped segment files rather than one
// unbounded file: appends go to the current (highest-numbered) segment
// and roll to a fresh one when it would exceed SegmentBytes. Sealed
// segments are immutable, which gives a long-lived collector two
// things a single file cannot: Compact() can drop sealed segments
// (preserving their dedup keys in a manifest) so restart replay cost
// stops growing with lifetime ingest, and a crash can corrupt at most
// the tail of the current segment — replay stops there, truncates back
// to the last complete batch, and the sender's retry (same idempotency
// key) redelivers what was lost. Delivery is at-least-once; the spool
// is exactly-once after replay dedup.
//
// A Server keeps one such chain per ingest shard, in <dir>/shard-NNN,
// and appends to it under the shard lock, so no two shards ever share
// a file and each chain holds its devices' batches in commit order.
// Chains in older layouts (one chain at the directory root, or more
// shard chains than the current shard count) replay read-only; see
// Server.openSpools.

// Segment file layout inside a spool dir. Segment 0 keeps the legacy
// single-file name so pre-rotation spools replay unchanged.
const (
	spoolFile    = "batches.jsonl"
	spoolSegFmt  = "batches-%06d.jsonl"
	manifestFile = "compacted.keys"
)

// DefaultSegmentBytes caps one segment file at 64 MiB.
const DefaultSegmentBytes = 64 << 20

// SpoolOptions tunes a spool.
type SpoolOptions struct {
	// SegmentBytes caps one segment file; an append that would push the
	// current segment past it rolls to a new segment first. <= 0
	// selects DefaultSegmentBytes.
	SegmentBytes int64
}

// SpoolReplay is what OpenSpool recovered from disk.
type SpoolReplay struct {
	// Batches are every complete batch across all segments in append
	// order, deduplicated by idempotency key.
	Batches []measure.Batch
	// CompactedKeys are dedup keys preserved from segments a previous
	// Compact dropped: their batches no longer replay, but redelivery
	// of those keys must still be absorbed.
	CompactedKeys []SpoolKey
	// Segments is the number of segment files found on disk.
	Segments int
}

// Spool is an append-only, segment-rotating batch log rooted at a
// directory.
type Spool struct {
	mu     sync.Mutex
	dir    string
	o      SpoolOptions
	f      *os.File // current segment, nil after Close
	fsize  int64
	seg    int   // current segment index
	sealed []int // immutable earlier segments still on disk, ascending
}

func segName(n int) string {
	if n == 0 {
		return spoolFile
	}
	return fmt.Sprintf(spoolSegFmt, n)
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if name == spoolFile {
			segs = append(segs, 0)
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, spoolSegFmt, &n); err == nil && strings.HasSuffix(name, ".jsonl") && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// SpoolKey is a dedup key preserved from a compacted segment, with the
// device attribution the server needs to seed the right ingest shard.
type SpoolKey struct {
	Device string `json:"device"`
	Key    string `json:"key"`
}

// readManifest loads the dedup keys preserved by previous Compacts.
// Each line is one JSON-encoded SpoolKey (keys are sender-controlled,
// so they cannot be trusted to stay on one line raw).
func readManifest(dir string) ([]SpoolKey, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("crowd: spool manifest: %w", err)
	}
	var keys []SpoolKey
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var k SpoolKey
		if err := json.Unmarshal(line, &k); err != nil {
			// A torn manifest tail (crash mid-Compact) loses at most the
			// keys of that Compact; the affected segments were not yet
			// deleted, so their keys replay from the segments instead.
			break
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// OpenSpool opens (creating if needed) the spool in dir with default
// options and replays it.
func OpenSpool(dir string) (*Spool, SpoolReplay, error) {
	return OpenSpoolOptions(dir, SpoolOptions{})
}

// OpenSpoolOptions opens the spool in dir and replays it: every
// complete batch across every segment, in append order, deduplicated
// by idempotency key (keys from compacted segments dedup too). A
// partial batch at the tail of the last segment — the residue of a
// crashed append — is discarded and truncated away so subsequent
// appends produce a clean log.
func OpenSpoolOptions(dir string, o SpoolOptions) (*Spool, SpoolReplay, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool dir: %w", err)
	}
	c, err := readChain(dir, make(map[string]struct{}))
	if err != nil {
		return nil, SpoolReplay{}, err
	}
	segs := c.segs
	if len(segs) == 0 {
		segs = []int{0}
	}
	c.rep.Segments = len(segs)
	last := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool open: %w", err)
	}
	// The current segment heals in place: truncate the torn tail so
	// appends resume at a batch boundary.
	if err := f.Truncate(c.tail); err != nil {
		f.Close()
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool truncate: %w", err)
	}
	if _, err := f.Seek(c.tail, io.SeekStart); err != nil {
		f.Close()
		return nil, SpoolReplay{}, fmt.Errorf("crowd: spool seek: %w", err)
	}
	return &Spool{dir: dir, o: o, f: f, fsize: c.tail, seg: last, sealed: segs[:len(segs)-1]}, c.rep, nil
}

// chain is one segment chain as read from disk.
type chain struct {
	rep  SpoolReplay
	segs []int // segment indexes present, ascending
	tail int64 // durable prefix of the last segment
}

// readChain reads the chain in dir without writing to it: the
// manifest's keys and every complete batch of every segment, in append
// order, skipping keys already in seen and adding new ones to it. A
// sealed segment with a bad tail (it should not happen — only a crash
// can tear a tail, and crashes tear the then-current segment, which is
// the last) keeps its good prefix and the read moves on. A directory
// without segments reads as an empty chain.
func readChain(dir string, seen map[string]struct{}) (chain, error) {
	var c chain
	keys, err := readManifest(dir)
	if err != nil {
		return c, err
	}
	c.rep.CompactedKeys = keys
	for _, k := range keys {
		seen[k.Key] = struct{}{}
	}
	if c.segs, err = listSegments(dir); err != nil {
		return c, fmt.Errorf("crowd: spool list: %w", err)
	}
	for _, n := range c.segs {
		f, err := os.Open(filepath.Join(dir, segName(n)))
		if err != nil {
			return c, fmt.Errorf("crowd: spool open: %w", err)
		}
		batches, goodOff := replaySpool(f, seen)
		f.Close()
		c.rep.Batches = append(c.rep.Batches, batches...)
		c.tail = goodOff
	}
	return c, nil
}

// replaySpool reads complete batches from one segment, skipping keys
// already in seen (and adding new ones to it), and reports the byte
// offset of the durable prefix. Decode errors — truncation or tail
// corruption — end the replay rather than failing it: everything
// before the bad entry is intact and served; the bad entry's sender
// retries with the same key.
func replaySpool(r io.Reader, seen map[string]struct{}) ([]measure.Batch, int64) {
	dec := measure.NewBatchDecoder(r)
	var batches []measure.Batch
	var off int64
	for {
		b, err := dec.Next()
		if err != nil {
			// io.EOF is the clean end; anything else is a partial or
			// corrupt tail — keep the durable prefix either way.
			return batches, off
		}
		off = dec.InputOffset()
		if _, dup := seen[b.Key]; dup {
			continue
		}
		seen[b.Key] = struct{}{}
		batches = append(batches, b)
	}
}

// Append writes one batch to the log, rolling to a new segment first
// when the current one is full. The batch is encoded in memory and
// lands in one file write, and a failed or short write truncates the
// segment back to its pre-append length — the log never holds a
// partial entry in the middle, so the "at most one partial batch, at
// the tail, from a crash" replay contract survives IO errors too.
// Durability is the OS page cache's (no fsync per batch — see DESIGN.md
// for the crash window contract).
func (s *Spool) Append(b measure.Batch) error {
	var buf bytes.Buffer
	if err := measure.EncodeBatch(&buf, b); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("crowd: append on closed spool")
	}
	if s.fsize > 0 && s.fsize+int64(buf.Len()) > s.o.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		// Heal in place: drop whatever partial bytes made it out so the
		// next append starts at a batch boundary. The batch's key was
		// never committed; the sender's retry redelivers it.
		s.f.Truncate(s.fsize)
		s.f.Seek(s.fsize, io.SeekStart)
		return fmt.Errorf("crowd: spool append: %w", err)
	}
	s.fsize += int64(buf.Len())
	return nil
}

// rotateLocked seals the current segment and opens the next one.
func (s *Spool) rotateLocked() error {
	next, err := os.OpenFile(filepath.Join(s.dir, segName(s.seg+1)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("crowd: spool rotate: %w", err)
	}
	s.f.Close()
	s.sealed = append(s.sealed, s.seg)
	s.seg++
	s.f, s.fsize = next, 0
	return nil
}

// Segments reports how many segment files the spool currently spans
// (sealed plus current).
func (s *Spool) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed) + 1
}

// SpoolStats is the spool's on-disk footprint.
type SpoolStats struct {
	Segments int   // segment files (sealed + current)
	Bytes    int64 // total bytes across all segments
}

// Stats reports the spool's segment count and total size. The current
// segment's size is tracked; sealed segments (immutable) are stat'd —
// a per-scrape cost of one stat per sealed segment, bounded by
// Compact.
func (s *Spool) Stats() SpoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpoolStats{Segments: len(s.sealed) + 1, Bytes: s.fsize}
	for _, n := range s.sealed {
		if fi, err := os.Stat(filepath.Join(s.dir, segName(n))); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st
}

// Compact drops every sealed segment, first preserving its dedup keys
// in the manifest so redelivery of a compacted batch is still absorbed
// after a restart. The records in dropped segments no longer replay:
// Compact is the companion of sketch-aggregated, RetainRecords=off
// operation, where the sketches — not the raw log — are the product
// and the log is a redelivery buffer. It returns the number of
// segments dropped and keys preserved.
func (s *Spool) Compact() (segments, keys int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, 0, fmt.Errorf("crowd: compact on closed spool")
	}
	if len(s.sealed) == 0 {
		return 0, 0, nil
	}
	// Gather the sealed segments' keys by re-reading them (cheap
	// relative to how rarely compaction runs, and it keeps the spool
	// from mirroring the server's dedup map in memory).
	var preserved []SpoolKey
	for _, n := range s.sealed {
		f, err := os.Open(filepath.Join(s.dir, segName(n)))
		if err != nil {
			return 0, 0, fmt.Errorf("crowd: compact read: %w", err)
		}
		batches, _ := replaySpool(f, make(map[string]struct{}))
		f.Close()
		for _, b := range batches {
			preserved = append(preserved, SpoolKey{Device: b.Device, Key: b.Key})
		}
	}
	// Manifest first, then delete: a crash between the two leaves both
	// the manifest keys and the segments, and replay dedups the overlap.
	mf, err := os.OpenFile(filepath.Join(s.dir, manifestFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("crowd: compact manifest: %w", err)
	}
	var mb bytes.Buffer
	for _, k := range preserved {
		line, err := json.Marshal(k)
		if err != nil {
			mf.Close()
			return 0, 0, err
		}
		mb.Write(line)
		mb.WriteByte('\n')
	}
	if _, err := mf.Write(mb.Bytes()); err != nil {
		mf.Close()
		return 0, 0, fmt.Errorf("crowd: compact manifest write: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return 0, 0, fmt.Errorf("crowd: compact manifest sync: %w", err)
	}
	mf.Close()
	dropped := 0
	for _, n := range s.sealed {
		if err := os.Remove(filepath.Join(s.dir, segName(n))); err != nil {
			return dropped, len(preserved), fmt.Errorf("crowd: compact remove: %w", err)
		}
		dropped++
	}
	s.sealed = s.sealed[:0]
	return dropped, len(preserved), nil
}

// Close closes the current segment file.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// ReadSpool loads the deduplicated records from a spool directory
// without writing to it — the `crowdstudy -spool` path for analysing a
// collectord's dataset offline. It reads every chain a server would
// replay (see Server.openSpools), in the same order and with the same
// cross-chain dedup. Records keep append order within a chain; records
// of compacted segments are gone (their keys only absorb redelivery).
// Empty-device records are stamped with their batch's device,
// mirroring what the server did (or would have done) at accept time.
func ReadSpool(dir string) ([]measure.Record, error) {
	shards, err := listShardChains(dir)
	if err != nil {
		return nil, fmt.Errorf("crowd: spool read: %w", err)
	}
	dirs := []string{dir}
	for _, i := range shards {
		dirs = append(dirs, shardDir(dir, i))
	}
	seen := make(map[string]struct{})
	segments := 0
	var recs []measure.Record
	for _, d := range dirs {
		c, err := readChain(d, seen)
		if err != nil {
			return nil, err
		}
		segments += len(c.segs)
		for _, b := range c.rep.Batches {
			recs = append(recs, stampRecords(b)...)
		}
	}
	if segments == 0 {
		return nil, fmt.Errorf("crowd: spool read: %w", os.ErrNotExist)
	}
	return recs, nil
}

// shardDirFmt names ingest shard i's chain inside a spool directory.
const shardDirFmt = "shard-%03d"

func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf(shardDirFmt, i))
}

// listShardChains returns the indexes of the shard chain directories
// in root, ascending.
func listShardChains(root string) ([]int, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var idx []int
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), "shard-")
		n, err := strconv.Atoi(num)
		if ok && err == nil && n >= 0 && e.IsDir() && e.Name() == fmt.Sprintf(shardDirFmt, n) {
			idx = append(idx, n)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// openSpools recovers every chain under SpoolDir and gives each ingest
// shard its own writable chain, <SpoolDir>/shard-NNN. Chains the
// server will never append to replay read-only:
//
//   - the root-level chain, written by servers that kept one spool for
//     all shards;
//   - shard chains at or beyond the current shard count, left by a run
//     with more shards.
//
// Chains replay root first, then in shard order, and every batch is
// routed to its device's shard exactly as a live upload would be —
// after a restart with a different shard count a chain may feed
// several shards. A key already held is skipped, so each batch
// replays once however the chains overlap.
func (s *Server) openSpools() error {
	root := s.o.SpoolDir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("crowd: spool dir: %w", err)
	}
	shards, err := listShardChains(root)
	if err != nil {
		return fmt.Errorf("crowd: spool list: %w", err)
	}
	readOnly := func(dir string) error {
		c, err := readChain(dir, make(map[string]struct{}))
		if err != nil {
			return err
		}
		s.replay(c.rep)
		return nil
	}
	if err := readOnly(root); err != nil {
		return err
	}
	for i := range s.shards {
		sp, rep, err := OpenSpoolOptions(shardDir(root, i), SpoolOptions{SegmentBytes: s.o.SpoolSegmentBytes})
		if err != nil {
			return err
		}
		s.shards[i].spool = sp
		s.replay(rep)
	}
	for _, i := range shards {
		if i >= len(s.shards) {
			if err := readOnly(shardDir(root, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay folds one chain's recovered batches and compacted keys into
// the ingest shards. It runs during construction, before the server
// is shared.
func (s *Server) replay(rep SpoolReplay) {
	for _, k := range rep.CompactedKeys {
		s.shard(k.Device).keys[k.Key] = struct{}{}
	}
	for _, b := range rep.Batches {
		sh := s.shard(b.Device)
		if _, dup := sh.keys[b.Key]; !dup {
			s.commit(sh, b)
		}
	}
}

// stampRecords applies the batch's device attribution to records that
// arrived without one, returning a copy.
func stampRecords(b measure.Batch) []measure.Record {
	out := make([]measure.Record, len(b.Records))
	for i, r := range b.Records {
		if r.Device == "" {
			r.Device = b.Device
		}
		out[i] = r
	}
	return out
}
