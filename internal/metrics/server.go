package metrics

import (
	"net/http"
	"time"
)

// Limits set on every HTTP listener this repository runs: the
// collector, the live dash, and the ingest harness's metrics endpoint.
// A peer that trickles its request line and headers is cut off after
// ServerReadHeaderTimeout, one that trickles a body after
// ServerReadTimeout, and a kept-alive connection left idle is closed
// after ServerIdleTimeout, so no peer pins a goroutine and a descriptor
// indefinitely. ServerReadTimeout leaves room for the collector's
// largest upload (8 MiB) over a 2.5 Mbit/s phone uplink. Responses are
// not bounded: /v1/records streams the whole dataset.
const (
	ServerReadHeaderTimeout = 5 * time.Second
	ServerReadTimeout       = 30 * time.Second
	ServerIdleTimeout       = 60 * time.Second
	ServerMaxHeaderBytes    = 16 << 10
)

// NewHTTPServer returns an http.Server for h with the listener limits
// above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ServerReadHeaderTimeout,
		ReadTimeout:       ServerReadTimeout,
		IdleTimeout:       ServerIdleTimeout,
		MaxHeaderBytes:    ServerMaxHeaderBytes,
	}
}
