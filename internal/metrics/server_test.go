package metrics

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveBounded runs h behind NewHTTPServer on a loopback listener.
func serveBounded(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(h)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// A client that trickles its request headers one byte at a time never
// finishes a request; the listener must drop it once the header
// deadline passes instead of holding the connection open.
func TestHTTPServerCutsOffTrickler(t *testing.T) {
	t.Parallel()
	addr := serveBounded(t, NewRegistry().Handler())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	closed := make(chan time.Time, 1)
	go func() {
		io.Copy(io.Discard, conn) // returns once the server drops us
		closed <- time.Now()
	}()
	start := time.Now()
	trickle := "GET /metrics HTTP/1.1\r\nHost: x\r\nX-Slow: " + strings.Repeat("a", 1000)
	limit := ServerReadHeaderTimeout + 5*time.Second
	for i := 0; ; i++ {
		select {
		case at := <-closed:
			held := at.Sub(start)
			if held < ServerReadHeaderTimeout-time.Second {
				t.Fatalf("dropped after %v, before the %v header deadline", held, ServerReadHeaderTimeout)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
		if time.Since(start) > limit {
			t.Fatalf("trickling client still connected after %v", limit)
		}
		if _, err := conn.Write([]byte{trickle[i%len(trickle)]}); err != nil {
			return // the server is gone: cut off
		}
	}
}

// Oversized request headers are refused before any handler runs.
func TestHTTPServerRejectsHugeHeaders(t *testing.T) {
	addr := serveBounded(t, NewRegistry().Handler())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req := "GET /metrics HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 2*ServerMaxHeaderBytes) + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("%d-byte header: %s, want 431", 2*ServerMaxHeaderBytes, resp.Status)
	}
}
