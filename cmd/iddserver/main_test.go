package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestSlowHeaderClientDropped: a client that opens a connection and
// never finishes its request header is disconnected once the header
// timeout passes, instead of holding the connection open indefinitely.
func TestSlowHeaderClientDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{}, 1)
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served <- struct{}{}
	}), 100*time.Millisecond, time.Minute)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request header, then silence.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server still holds the slow-header connection open after 5s")
	}
	if wall := time.Since(start); wall > 3*time.Second {
		t.Fatalf("slow-header client dropped only after %v", wall)
	}
	select {
	case <-served:
		t.Fatal("handler ran for an incomplete request")
	default:
	}
}
