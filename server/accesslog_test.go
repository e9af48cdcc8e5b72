package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a log sink a test can read while the server's flush
// timer may still write to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSuffix(b.buf.String(), "\n"), "\n")
}

var accessLine = regexp.MustCompile(`^GET /api/stats\?n=\d+ 200 [0-9.]+(µs|ms|s)$`)

// A clean drain loses no line: Serve returns only after the buffered
// access log has reached the sink, in order, in the parent's format,
// between the two lifecycle lines.
func TestAccessLogFlushedOnDrain(t *testing.T) {
	var sink lockedBuffer
	srv, _ := servingServer(t, WithLogger(log.New(&sink, "", 0)))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, addr) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up")
		}
	}
	const n = 1500 // ≈ 30-byte lines: more than the 32 KiB buffer holds, so full-buffer flushes happen too
	for i := 0; i < n; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/api/stats?n=%d", addr, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	lines := sink.lines()
	if len(lines) != n+2 {
		t.Fatalf("%d log lines for %d requests and two lifecycle lines:\n%s", len(lines), n, strings.Join(lines[:min(len(lines), 5)], "\n"))
	}
	if !strings.HasPrefix(lines[0], "kqr server listening on ") || lines[n+1] != "kqr server draining (10s grace)" {
		t.Fatalf("lifecycle lines out of place: %q … %q", lines[0], lines[n+1])
	}
	for i, line := range lines[1 : n+1] {
		if !accessLine.MatchString(line) || !strings.Contains(line, fmt.Sprintf("?n=%d ", i)) {
			t.Fatalf("line %d: %q", i, line)
		}
	}
}

// A Server built by New and dropped — as bench/ and every test build
// them — owns no goroutine, served or not; lines it buffered reach the
// sink when they go stale, with no further request to push them.
func TestNewLeavesNoGoroutine(t *testing.T) {
	first, _ := servingServer(t)
	var sink lockedBuffer
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		srv, err := New(first.eng, WithLogger(log.New(&sink, "", 0)))
		if err != nil {
			t.Fatal(err)
		}
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("/api/stats?n=%d", i), nil))
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		lines, goroutines := sink.lines(), runtime.NumGoroutine()
		if len(lines) == 100 && goroutines <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 100 stale lines flushed, %d goroutines (before: %d)", len(lines), goroutines, before)
		}
	}
}

// The sink may be closed under the server (bench/ closes its log file
// while lines are waiting): requests keep being answered, flushes drop
// their lines.
func TestLogSinkClosed(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "requests.log"))
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := servingServer(t, WithLogger(log.New(f, "", log.LstdFlags)))
	f.Close()
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/stats", nil))
		if w.Code != http.StatusOK || w.Body.Len() == 0 {
			t.Fatalf("request %d with the log sink closed: %d %q", i, w.Code, w.Body)
		}
		srv.logBuf.Flush()
	}
	srv.logf("an error line after the sink is gone")
}

// callWriter records whether a handler touched the response.
type callWriter struct {
	discardWriter
	calls int
}

func (w *callWriter) Write(b []byte) (int, error) { w.calls++; return len(b), nil }
func (w *callWriter) WriteHeader(int)             { w.calls++ }

// A client that goes away while queued for a slot was not shed: nothing
// is written to its dead connection, Shed stays 0, and the request is
// counted as an error and logged as cancelled.
func TestCancelledWaitIsNotShed(t *testing.T) {
	var sink lockedBuffer
	srv, _ := servingServer(t, WithMaxInflight(1, 1), WithLogger(log.New(&sink, "", 0)))
	if err := srv.limiter.Acquire(context.Background()); err != nil { // the only slot
		t.Fatal(err)
	}
	defer srv.limiter.Release()
	ctx, cancel := context.WithCancel(context.Background())
	w := &callWriter{discardWriter: discardWriter{h: http.Header{}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/reformulate?q=probabilistic", nil).WithContext(ctx))
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.limiter.Waiting() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request never queued")
		}
	}
	cancel()
	<-done
	if w.calls != 0 {
		t.Errorf("%d writes to a client that had gone away", w.calls)
	}
	em := srv.Metrics().Endpoints["reformulate"]
	if em.Shed != 0 || em.Errors != 1 || em.Requests != 1 {
		t.Errorf("counters %+v, want 1 request, 1 error, 0 shed", em)
	}
	srv.logBuf.Flush()
	if lines := sink.lines(); len(lines) != 1 || !strings.HasPrefix(lines[0], "GET /api/reformulate?q=probabilistic 499 cancelled ") {
		t.Errorf("log: %q", lines)
	}
}
