package server

import (
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The access log is one line per request, and a synchronous log.Printf
// per request is one write(2) per request — on a cache hit, a seventh
// of the handler. Every line the server logs therefore goes through a
// logBuffer in front of the WithLogger sink: request lines stay in it
// until it is full or logFlushAfter old, lifecycle and error lines
// (logf) flush it as they are written, so the sink sees every line, in
// order, and an operator tailing it is at most logFlushAfter behind.

const (
	// logBufferSize is what one flush writes at most: some 400 request
	// lines.
	logBufferSize = 32 << 10
	// logFlushAfter bounds how long a line waits in the buffer.
	logFlushAfter = 250 * time.Millisecond
)

// logBuffer is an io.Writer that gathers whole log lines and hands them
// to the sink's writer in batches. It owns no goroutine: the staleness
// bound is a timer armed while lines are waiting, so a Server that is
// dropped without ever being served or closed leaves nothing behind
// (after at most one last timer-driven flush).
type logBuffer struct {
	sink *log.Logger

	mu    sync.Mutex
	buf   []byte
	timer *time.Timer // pending while buf is non-empty
}

// Write buffers one formatted line, flushing first when it would not
// fit. It never fails: the log must not fail a request.
func (b *logBuffer) Write(line []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf)+len(line) > logBufferSize {
		b.flushLocked()
	}
	if len(b.buf) == 0 {
		if b.timer == nil {
			b.buf = make([]byte, 0, logBufferSize)
			b.timer = time.AfterFunc(logFlushAfter, b.Flush)
		} else {
			b.timer.Reset(logFlushAfter)
		}
	}
	b.buf = append(b.buf, line...)
	return len(line), nil
}

// Flush writes the waiting lines to the sink.
func (b *logBuffer) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushLocked()
}

func (b *logBuffer) flushLocked() {
	if len(b.buf) == 0 {
		return
	}
	b.timer.Stop()
	// The sink may be gone — a file the owner closed while lines were
	// waiting. Those lines are lost; nobody is left to tell.
	_, _ = b.sink.Writer().Write(b.buf)
	b.buf = b.buf[:0]
}

// logf logs a lifecycle or error line and flushes: it is in the sink
// when logf returns, after every request line written before it.
func (s *Server) logf(format string, args ...any) {
	s.log.Printf(format, args...)
	s.logBuf.Flush()
}

// logRequest writes a request's access line — "GET /api/x?q=… 200 84µs",
// with tag ("shed", "admin:promote") before the latency when there is
// one — into the buffer.
func (s *Server) logRequest(r *http.Request, status int, tag string, start time.Time) {
	var a [192]byte
	line := append(a[:0], r.Method...)
	line = append(line, ' ')
	line = append(line, r.URL.RequestURI()...)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(status), 10)
	line = append(line, ' ')
	if tag != "" {
		line = append(line, tag...)
		line = append(line, ' ')
	}
	line = append(line, time.Since(start).Round(time.Microsecond).String()...)
	// Output's error is the writer's, and logBuffer.Write has none.
	_ = s.log.Output(0, string(line))
}
