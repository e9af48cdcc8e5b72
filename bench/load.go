package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator: one process, one goroutine per connection, never
// more connections than the caller asks for (the workloads ask for at
// most nproc). A closed loop sends a client's next request when the
// previous one completes; the open loop sends on a fixed schedule and
// times every request from the instant it was due, so a stall is billed
// to every request it delayed.

// outcome classifies one finished request.
type outcome int

const (
	outOK outcome = iota
	outShed
	outFailed // transport error, non-200 or a wrong answer
)

// clock is the generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spinMargin is how long before its deadline Sleep stops sleeping and
// starts spinning: a little more than nanosleep usually overshoots.
const spinMargin = 150 * time.Microsecond

// Sleep waits d with microsecond precision. time.Sleep will not do: an
// idle Go scheduler waits in epoll, whose timeout counts milliseconds,
// so a 300 µs sleep returns after a millisecond or more and an open
// loop above 1000 req/s would mostly measure its own lateness.
// nanosleep(2) is accurate to some tens of microseconds, and the last
// stretch is spun.
func (wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > spinMargin {
		ts := syscall.NsecToTimespec(int64(d - spinMargin))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(deadline) {
	}
}

// windowStats is what one measurement window saw.
type windowStats struct {
	lat hist
	ok  int
}

// phaseStats accumulates one phase. Each worker owns one and they are
// merged when the phase ends, so recording takes no lock.
type phaseStats struct {
	windows []windowStats
	lat     hist // every request of the phase
	late    hist // open loop: how long after its due time a request left
	// split, when the phase was given a busy test: latencies of the
	// requests due while it said no [0] and yes [1].
	split    [2]hist
	sent     int
	ok       int
	failed   int
	shed     int
	bytes    int64 // response body bytes of ok requests
	windowNS int64
}

// maxWindows caps a phase that runs until stopped (churn).
const maxWindows = 240

func newPhaseStats(window time.Duration) *phaseStats {
	return &phaseStats{windowNS: int64(window)}
}

// record files one request under the window its reference time (due
// time in an open loop, completion time in a closed one) falls in. A
// failed or shed request counts as the slowest value the recorder
// holds: it missed every latency limit.
func (p *phaseStats) record(sinceStart, lat time.Duration, o outcome, bodyLen int) {
	p.sent++
	switch o {
	case outOK:
		p.ok++
		p.bytes += int64(bodyLen)
	case outShed:
		p.shed++
		p.failed++
		lat = histMaxNS
	default:
		p.failed++
		lat = histMaxNS
	}
	p.lat.Record(lat)
	w := int(int64(sinceStart) / p.windowNS)
	if w < 0 || w >= maxWindows {
		return
	}
	for len(p.windows) <= w {
		p.windows = append(p.windows, windowStats{})
	}
	p.windows[w].lat.Record(lat)
	if o == outOK {
		p.windows[w].ok++
	}
}

func (p *phaseStats) merge(o *phaseStats) {
	for len(p.windows) < len(o.windows) {
		p.windows = append(p.windows, windowStats{})
	}
	for i := range o.windows {
		p.windows[i].lat.Merge(&o.windows[i].lat)
		p.windows[i].ok += o.windows[i].ok
	}
	for i := range o.split {
		p.split[i].Merge(&o.split[i])
	}
	p.lat.Merge(&o.lat)
	p.late.Merge(&o.late)
	p.sent += o.sent
	p.ok += o.ok
	p.failed += o.failed
	p.shed += o.shed
	p.bytes += o.bytes
}

// full returns the first n windows — the ones that lie wholly inside
// the phase — or all of them when n is 0.
func (p *phaseStats) full(n int) []windowStats {
	if n > 0 && n < len(p.windows) {
		return p.windows[:n]
	}
	return p.windows
}

// windowMedian is the median over windows of a per-window value.
func windowMedian(ws []windowStats, f func(*windowStats) float64) float64 {
	vals := make([]float64, len(ws))
	for i := range ws {
		vals[i] = f(&ws[i])
	}
	return median(vals)
}

func (p *phaseStats) String() string {
	return fmt.Sprintf("sent %d / ok %d / failed %d (shed %d)", p.sent, p.ok, p.failed, p.shed)
}

// conn is one keep-alive HTTP/1.1 connection driven synchronously: no
// goroutines of its own, so the generator's cost per request stays a
// small, steady fraction of what it measures.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

const requestTimeout = 15 * time.Second

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// get sends raw (a complete GET request) and reads the response. The
// returned body is valid until the next call.
func (c *conn) get(raw []byte) (status int, body []byte, err error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	c.c.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := c.c.Write(raw); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// rawGet renders the request bytes for a path.
func rawGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func reformulatePath(q string, k int) string {
	return fmt.Sprintf("/api/reformulate?q=%s&k=%d", url.QueryEscape(q), k)
}

// target is one server plus the dataset's requests rendered for it.
type target struct {
	addr string
	raw  [][]byte // raw[i] requests dataset pool entry i
	// seen[i] holds a hash of the first body pool entry i was answered
	// with; a later answer must match it (nil skips the check, for a
	// server whose corpus changes under the traffic).
	seen []atomic.Uint64
}

func newTarget(addr string, d *dataset, checkRepeat bool) *target {
	t := &target{addr: addr, raw: make([][]byte, len(d.Pool))}
	for i, r := range d.Pool {
		t.raw[i] = rawGet(reformulatePath(r.Q, d.K))
	}
	if checkRepeat {
		t.seen = make([]atomic.Uint64, len(d.Pool))
	}
	return t
}

var (
	bodyPrefix = []byte(`{"query":[`)
	bodySuffix = []byte("}\n")
)

// send performs pool entry idx over c and judges the answer: 200, a
// well-formed reformulate body, and byte-identical to every earlier
// answer to the same request.
func (t *target) send(c *conn, idx int) (outcome, int) {
	status, body, err := c.get(t.raw[idx])
	switch {
	case err != nil:
		return outFailed, 0
	case status == http.StatusServiceUnavailable:
		return outShed, 0
	case status != http.StatusOK:
		return outFailed, 0
	}
	if !bytes.HasPrefix(body, bodyPrefix) || !bytes.HasSuffix(body, bodySuffix) {
		return outFailed, 0
	}
	if t.seen != nil {
		sum := fnv64a(body) | 1 // never the zero "unseen" marker
		if !t.seen[idx].CompareAndSwap(0, sum) && t.seen[idx].Load() != sum {
			return outFailed, 0
		}
	}
	return outOK, len(body)
}

// fnv64a hashes b (FNV-1a) without allocating.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// sender is what a load loop calls for request number seq; it reports
// ok == false when the request stream has run dry.
type sender func(worker, seq int) (o outcome, bodyLen int, ok bool)

// datasetSender walks d's send order from offset over one connection
// per worker.
func datasetSender(t *target, d *dataset, offset, workers int) (sender, func()) {
	conns := make([]*conn, workers)
	for i := range conns {
		conns[i] = &conn{addr: t.addr}
	}
	send := func(worker, seq int) (outcome, int, bool) {
		idx, ok := d.at(offset + seq)
		if !ok {
			return 0, 0, false
		}
		o, n := t.send(conns[worker], idx)
		return o, n, true
	}
	return send, func() {
		for _, c := range conns {
			c.close()
		}
	}
}

// runClosed drives a closed loop: workers clients, each sending its
// next request as soon as the previous answer arrived, for dur. It
// returns the merged statistics and how many requests of the stream it
// consumed.
func runClosed(clk clock, send sender, workers int, dur, window time.Duration) (*phaseStats, int) {
	var next atomic.Int64
	start := clk.Now()
	parts := make([]*phaseStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		parts[w] = newPhaseStats(window)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := parts[w]
			for {
				t0 := clk.Now()
				if t0.Sub(start) >= dur {
					return
				}
				o, n, ok := send(w, int(next.Add(1)-1))
				if !ok {
					return
				}
				t1 := clk.Now()
				st.record(t1.Sub(start), t1.Sub(t0), o, n)
			}
		}(w)
	}
	wg.Wait()
	total := newPhaseStats(window)
	for _, p := range parts {
		total.merge(p)
	}
	return total, int(next.Load())
}

// openParams configures an open loop.
type openParams struct {
	rate    float64       // requests per second
	dur     time.Duration // schedule length; 0 runs until stop closes
	stop    <-chan struct{}
	window  time.Duration
	workers int
	// busy, when set, is asked after each answer whether the request's
	// due time fell in a stretch the caller wants kept apart (churn: the
	// server was rebuilding); the latency goes to phaseStats.split.
	busy func(due time.Time) bool
}

// runOpen drives an open loop: request j is due at start + j/rate no
// matter how the server is doing. A worker that falls behind sends
// late but never skips, latency runs from the due time, and how late
// each request left is recorded beside it. A schedule still unfinished
// at twice its length (plus the request timeout) is abandoned: what is
// left of it is counted as failed without being sent.
func runOpen(clk clock, send sender, p openParams) (*phaseStats, int) {
	interval := time.Duration(float64(time.Second) / p.rate)
	n := int64(-1)
	if p.dur > 0 {
		n = int64(p.rate * p.dur.Seconds())
	}
	giveUp := 2*p.dur + requestTimeout
	var next atomic.Int64
	start := clk.Now()
	parts := make([]*phaseStats, p.workers)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		parts[w] = newPhaseStats(p.window)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := parts[w]
			for {
				if p.stop != nil {
					select {
					case <-p.stop:
						return
					default:
					}
				}
				j := next.Add(1) - 1
				if n >= 0 && j >= n {
					return
				}
				due := time.Duration(j) * interval
				now := clk.Now().Sub(start)
				if now < due {
					clk.Sleep(due - now)
					now = clk.Now().Sub(start)
				}
				if p.dur > 0 && now > giveUp {
					st.record(due, 0, outFailed, 0)
					continue
				}
				o, bodyLen, ok := send(w, int(j))
				if !ok {
					return
				}
				st.late.Record(now - due)
				lat := clk.Now().Sub(start) - due
				st.record(due, lat, o, bodyLen)
				if p.busy != nil {
					if o != outOK {
						lat = histMaxNS // as record files it
					}
					which := 0
					if p.busy(start.Add(due)) {
						which = 1
					}
					st.split[which].Record(lat)
				}
			}
		}(w)
	}
	wg.Wait()
	total := newPhaseStats(p.window)
	for _, part := range parts {
		total.merge(part)
	}
	return total, int(next.Load())
}
