package server

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"kqr"
	"kqr/synthetic"
)

// writeCountingListener hands out connections that count their Write
// calls, all of them into one counter. A call is counted before it is
// passed on, so once a client has read a whole response every write
// that carried it has been counted.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, writes: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestMissResponseFraming serves /api/reformulate over a real loopback
// listener and looks at how responses leave it. A k=50 miss, whose body
// is larger than net/http's 2 KiB pre-chunking buffer, must carry
// Content-Length == len(body) and no chunked framing, and leave in at
// most two writes (undeclared, it was chunked into three). A small hit
// must be framed as net/http frames it on its own: a Content-Length it
// computed, one write. Both bodies must be the json.Marshal oracle's.
func TestMissResponseFraming(t *testing.T) {
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, WithCache(64<<20, 5*time.Minute), WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &writeCountingListener{Listener: ln}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(cl) }()
	defer func() { hs.Close(); <-served }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// get answers q over the listener: the response, its body, and the
	// writes the server made for it.
	get := func(q url.Values) (*http.Response, []byte, int64) {
		t.Helper()
		before := cl.writes.Load()
		resp, err := client.Get("http://" + ln.Addr().String() + "/api/reformulate?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.Encode(), resp.StatusCode, body)
		}
		if _, want := oracleReformulate(srv, q); !bytes.Equal(body, want) {
			t.Fatalf("%s:\n got %s\nwant %s", q.Encode(), body, want)
		}
		return resp, body, cl.writes.Load() - before
	}
	framed := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v", what, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d for a %d-byte body", what, resp.ContentLength, len(body))
		}
	}

	miss := url.Values{"q": {"probabilistic ranking uncertain mining query evaluation"}, "k": {"50"}}
	resp, body, writes := get(miss)
	if len(body) <= preChunkingBytes {
		t.Fatalf("a k=50 miss body of %d bytes: the test needs one above %d", len(body), preChunkingBytes)
	}
	framed("k=50 miss", resp, body)
	if writes > 2 {
		t.Errorf("a %d-byte miss left in %d writes, want at most 2", len(body), writes)
	}

	small := url.Values{"q": {"probabilistic ranking"}, "k": {"5"}}
	hitsBefore := srv.Metrics().Endpoints["reformulate"].Hits
	var first []byte
	for i := range 3 { // a response is cached on its second sighting
		resp, body, writes := get(small)
		if len(body) > preChunkingBytes {
			t.Fatalf("a k=5 body of %d bytes: the test needs one within %d", len(body), preChunkingBytes)
		}
		framed("k=5", resp, body)
		if writes != 1 {
			t.Errorf("request %d: a %d-byte body left in %d writes, want 1", i, len(body), writes)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("request %d: body\n%s\ndiffers from the first\n%s", i, body, first)
		}
	}
	if hits := srv.Metrics().Endpoints["reformulate"].Hits - hitsBefore; hits != 1 {
		t.Fatalf("%d cache hits among the small requests, want 1", hits)
	}
}
