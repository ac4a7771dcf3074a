package crowd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/measure"
)

// compatBatches is the fixed upload set the layout cases spool: 40
// batches from 24 devices, one or two records each.
func compatBatches() []measure.Batch {
	var out []measure.Batch
	for i := 0; i < 40; i++ {
		dev := fmt.Sprintf("dev-%02d", i%24)
		recs := []measure.Record{srvRec("", fmt.Sprintf("com.app%d", i%5), float64(3+i))}
		if i%3 == 0 {
			recs = append(recs, srvRec("", "com.common", float64(40+i)))
		}
		out = append(out, srvBatch(dev, fmt.Sprintf("%s/k%d", dev, i), i, recs...))
	}
	return out
}

// spoolWithServer uploads batches through a spooling server with the
// given shard count and closes it.
func spoolWithServer(t *testing.T, dir string, shards int, batches []measure.Batch) {
	t.Helper()
	s, err := NewServer(ServerOptions{SpoolDir: dir, IngestShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, b := range batches {
		if resp := postBatch(t, ts, "", b, b.Device); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %s: %s", b.Key, resp.Status)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendChain writes batches straight into the chain in dir, the way a
// server of an older layout did.
func appendChain(t *testing.T, dir string, o SpoolOptions, batches []measure.Batch) *Spool {
	t.Helper()
	sp, _, err := OpenSpoolOptions(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := sp.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// canonicalRecords renders a record set in a fixed order, so datasets
// read in different chain or shard orders compare equal.
func canonicalRecords(recs []measure.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%+v", r)
	}
	sort.Strings(out)
	return out
}

func recordCount(batches []measure.Batch) int {
	n := 0
	for _, b := range batches {
		n += len(b.Records)
	}
	return n
}

// TestSpoolLayoutCompat reopens spools written in every layout this
// collector has produced, and checks each replays exactly once: the
// replayed Stats count the surviving batches, ReadSpool sees the same
// dataset as the server, every replayed (or compacted) key absorbs a
// redelivery as a duplicate, CompactSpool succeeds, and a second
// restart replays the same state again.
func TestSpoolLayoutCompat(t *testing.T) {
	all := compatBatches()
	type spooled struct {
		live      []measure.Batch // must replay with their records
		compacted []measure.Batch // replay as dedup keys only
		torn      []measure.Batch // lost to a crash: must be accepted again
	}
	for _, tc := range []struct {
		name   string
		shards int // shard count of the reopening server
		write  func(t *testing.T, dir string) spooled
	}{
		{
			// One root-level chain, as servers with a single spool wrote
			// it: rotated at every append, one compaction behind it.
			name: "legacy-root", shards: 4,
			write: func(t *testing.T, dir string) spooled {
				o := SpoolOptions{SegmentBytes: 1}
				sp := appendChain(t, dir, o, all[:10])
				if segs, _, err := sp.Compact(); err != nil || segs != 9 {
					t.Fatalf("legacy compact: %d segments, %v", segs, err)
				}
				for _, b := range all[10:] {
					if err := sp.Append(b); err != nil {
						t.Fatal(err)
					}
				}
				sp.Close()
				return spooled{live: all[9:], compacted: all[:9]}
			},
		},
		{
			// Four shard-NNN chains, each holding the devices of one
			// outer shard of a four-way collector split.
			name: "four-dir", shards: DefaultIngestShards,
			write: func(t *testing.T, dir string) spooled {
				for i := 0; i < 4; i++ {
					var mine []measure.Batch
					for _, b := range all {
						if hashDevice(b.Device)&3 == uint64(i) {
							mine = append(mine, b)
						}
					}
					appendChain(t, shardDir(dir, i), SpoolOptions{}, mine).Close()
				}
				return spooled{live: all}
			},
		},
		{
			// The same batches in two chains (the root chain and
			// shard-000): each still replays once.
			name: "overlapping-chains", shards: 4,
			write: func(t *testing.T, dir string) spooled {
				appendChain(t, dir, SpoolOptions{}, all[:10]).Close()
				appendChain(t, shardDir(dir, 0), SpoolOptions{}, all[5:15]).Close()
				return spooled{live: all[:15]}
			},
		},
		{
			name: "fewer-shards", shards: 4,
			write: func(t *testing.T, dir string) spooled {
				spoolWithServer(t, dir, 16, all)
				return spooled{live: all}
			},
		},
		{
			name: "more-shards", shards: 16,
			write: func(t *testing.T, dir string) spooled {
				spoolWithServer(t, dir, 4, all)
				return spooled{live: all}
			},
		},
		{
			// A crash cut the last batch of one shard chain mid-write.
			name: "torn-tail", shards: 4,
			write: func(t *testing.T, dir string) spooled {
				spoolWithServer(t, dir, 4, all)
				for i := 0; i < 4; i++ {
					c, err := readChain(shardDir(dir, i), make(map[string]struct{}))
					if err != nil {
						t.Fatal(err)
					}
					if len(c.rep.Batches) < 2 {
						continue
					}
					path := filepath.Join(shardDir(dir, i), spoolFile)
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, raw[:len(raw)-15], 0o644); err != nil {
						t.Fatal(err)
					}
					lost := c.rep.Batches[len(c.rep.Batches)-1]
					var live []measure.Batch
					for _, b := range all {
						if b.Key != lost.Key {
							live = append(live, b)
						}
					}
					return spooled{live: live, torn: []measure.Batch{lost}}
				}
				t.Fatal("no shard chain holds two batches")
				return spooled{}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sp := tc.write(t, dir)
			open := func() *Server {
				s, err := NewServer(ServerOptions{SpoolDir: dir, IngestShards: tc.shards})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			s := open()
			want := ServerStats{Batches: len(sp.live), Records: recordCount(sp.live)}
			if st := s.Stats(); st != want {
				t.Fatalf("replayed stats %+v, want %+v", st, want)
			}
			recs, err := ReadSpool(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, srv := canonicalRecords(recs), canonicalRecords(s.Records()); fmt.Sprint(got) != fmt.Sprint(srv) {
				t.Fatalf("ReadSpool holds %d records, the server %d, or they differ", len(got), len(srv))
			}

			ts := httptest.NewServer(s)
			redeliver := append(append([]measure.Batch{}, sp.live...), sp.compacted...)
			for _, b := range append(redeliver, sp.torn...) {
				if resp := postBatch(t, ts, "", b, b.Device); resp.StatusCode != http.StatusOK {
					t.Fatalf("redelivery of %s: %s", b.Key, resp.Status)
				}
			}
			ts.Close()
			want.Duplicates = len(redeliver)
			want.Batches += len(sp.torn)
			want.Records += recordCount(sp.torn)
			if st := s.Stats(); st != want {
				t.Fatalf("after redelivery %+v, want %+v", st, want)
			}
			if _, _, err := s.CompactSpool(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Exactly once across a second restart, the re-accepted torn
			// batch included.
			s = open()
			defer s.Close()
			want.Duplicates = 0
			if st := s.Stats(); st != want {
				t.Errorf("second restart %+v, want %+v", st, want)
			}
		})
	}
}
