package serving

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// hello is the plain handler these tests serve: the listener's behaviour
// does not depend on what it serves.
var hello = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "hello")
})

func TestEndpointShutdownRefusesNewConnections(t *testing.T) {
	ep, err := Listen("127.0.0.1:0", hello)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ep.Addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "hello" {
		t.Fatalf("live GET = %d %q, %v", resp.StatusCode, body, err)
	}
	if err := ep.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// After shutdown, the socket refuses outright: connection-level, not 503.
	if conn, err := net.DialTimeout("tcp", ep.Addr, time.Second); err == nil {
		conn.Close()
		t.Error("dial succeeded after Shutdown")
	}
}

func TestEndpointIsHardened(t *testing.T) {
	ep, err := Listen("127.0.0.1:0", hello)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	srv := ep.srv
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Errorf("endpoint missing limits: %+v", srv)
	}
	// The debug endpoint's /debug/pprof/profile keeps its 30 s budget.
	if srv.WriteTimeout < 30*time.Second {
		t.Errorf("WriteTimeout = %v, want at least 30s", srv.WriteTimeout)
	}
}

func TestEndpointSurfacesServeError(t *testing.T) {
	ep, err := Listen("127.0.0.1:0", hello)
	if err != nil {
		t.Fatal(err)
	}
	// Yank the listener out from under the serve loop: the error must be
	// observable, not swallowed in a bare goroutine.
	ep.ln.Close()
	deadline := time.Now().Add(2 * time.Second)
	for ep.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ep.Err() == nil {
		t.Fatal("serve-loop death after listener close was swallowed")
	}
	if err := ep.Close(); err == nil {
		t.Error("Close returned nil after the serve loop died")
	}
}
