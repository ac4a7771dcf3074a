// Command collectord is the crowdsourcing collector server: the wire
// endpoint MopEye phones upload their measurement batches to (§4
// deployment shape). It authenticates device stamps (and a shared
// token when configured), deduplicates batches on their idempotency
// keys, appends accepted batches to a durable segment-rotating spool,
// maintains streaming per-app/per-network quantile sketches, and
// serves the assembled dataset back as JSONL.
//
// Endpoints: POST /v1/upload (batch wire encoding), GET /v1/records
// (JSONL dump; 404 with -retain-records=false), GET /v1/stats
// (sketched aggregates, O(1) in dataset size), GET /healthz, and —
// with -metrics — GET /metrics (Prometheus text exposition: upload
// counters, dedup hits, spool segments and bytes, per-shard record
// skew, sketched per-network RTT summaries).
//
// Usage:
//
//	collectord [-addr 127.0.0.1:8477] [-spool DIR] [-token T]
//	           [-shards N] [-retain-records=BOOL] [-spool-segment-bytes N]
//	           [-metrics]
//
// -shards sets the ingest lock-shard count (rounded up to a power of
// two; default crowd.DefaultIngestShards = 16). Uploads lock only their
// device's shard, and each shard appends to its own spool segment
// chain, DIR/shard-NNN. Spools in older layouts — one chain at the
// root of DIR, or shard chains left by a run with more shards — are
// replayed read-only at start-up. Feed the collector from a phone
// (`mopeye -upload http://127.0.0.1:8477`) or a fleet, then analyse
// with `crowdstudy -serve http://127.0.0.1:8477` (live) or
// `crowdstudy -spool DIR` (offline).
//
// The listener cuts off peers that trickle requests or idle on a
// connection (metrics.NewHTTPServer's limits).
//
// SIGINT/SIGTERM shut the collector down gracefully: the listener
// stops accepting, in-flight uploads drain (their commits and spool
// appends complete), and the spool closes at a batch boundary — a
// restart replays it intact.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/crowd"
	"repro/internal/metrics"
)

// config is the parsed command line.
type config struct {
	addr              string
	spool             string
	token             string
	shards            int
	retainRecords     bool
	spoolSegmentBytes int64
	metrics           bool
}

// parseFlags parses the command line (without running anything), so
// flag handling is unit-testable.
func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("collectord", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8477", "listen address")
	fs.StringVar(&c.spool, "spool", "", "durable spool directory (empty = memory only)")
	fs.StringVar(&c.token, "token", "", "shared bearer token required on every request (empty = open)")
	fs.IntVar(&c.shards, "shards", crowd.DefaultIngestShards, "ingest lock shards, each with its own spool chain under DIR/shard-NNN (rounded up to a power of two)")
	fs.BoolVar(&c.retainRecords, "retain-records", true, "keep raw records in memory and serve /v1/records (false = sketched aggregates only, bounded memory)")
	fs.Int64Var(&c.spoolSegmentBytes, "spool-segment-bytes", 0, "spool segment size cap in bytes (0 = 64 MiB default)")
	fs.BoolVar(&c.metrics, "metrics", false, "serve GET /metrics (Prometheus text exposition; token-exempt like /healthz)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if c.shards < 1 {
		return config{}, fmt.Errorf("collectord: -shards %d (want >= 1)", c.shards)
	}
	if c.spoolSegmentBytes < 0 {
		return config{}, fmt.Errorf("collectord: -spool-segment-bytes %d (want >= 0)", c.spoolSegmentBytes)
	}
	return c, nil
}

// serverOptions maps the command line onto crowd.ServerOptions.
func (c config) serverOptions() crowd.ServerOptions {
	retain := crowd.RetainOn
	if !c.retainRecords {
		retain = crowd.RetainOff
	}
	return crowd.ServerOptions{
		SpoolDir:          c.spool,
		Token:             c.token,
		IngestShards:      c.shards,
		RetainRecords:     retain,
		SpoolSegmentBytes: c.spoolSegmentBytes,
		ExposeMetrics:     c.metrics,
	}
}

// drainTimeout bounds the graceful-shutdown drain; connections still
// alive after it are cut (their senders retry with the same
// idempotency key, so nothing is lost).
const drainTimeout = 5 * time.Second

// serve runs the collector on ln until ctx is cancelled, then shuts
// down gracefully: stop accepting, drain in-flight uploads (commits
// and spool appends complete), close the spool at a batch boundary,
// and print the final tally to out. Factored out of main so the
// interrupted-restart path is testable in-process.
func serve(ctx context.Context, c config, ln net.Listener, out io.Writer) error {
	srv, err := crowd.NewServer(c.serverOptions())
	if err != nil {
		return err
	}
	if st := srv.Stats(); st.Batches > 0 {
		log.Printf("replayed spool: %d batches, %d records", st.Batches, st.Records)
	}
	log.Printf("collectord listening on http://%s (spool %q, shards %d, retain-records %v, metrics %v)",
		ln.Addr(), c.spool, c.shards, c.retainRecords, c.metrics)

	hs := metrics.NewHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			// Drain expired: cut the stragglers. Their uploads were not
			// acknowledged, so the transport's retry redelivers them.
			hs.Close()
		}
		<-serveErr // always http.ErrServerClosed after Shutdown/Close
	case err := <-serveErr:
		// Listener failure, not a shutdown: still close the spool
		// cleanly before reporting.
		srv.Close()
		return err
	}

	closeErr := srv.Close()
	st := srv.Stats()
	fmt.Fprintf(out, "collected %d records in %d batches (%d duplicates absorbed, %d auth failures, %d bad requests)\n",
		st.Records, st.Batches, st.Duplicates, st.AuthFailures, st.BadRequests)
	return closeErr
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, c, ln, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
