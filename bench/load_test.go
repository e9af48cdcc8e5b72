package main

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time: Sleep and the fake server's service time
// advance it, nothing else does.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestOpenLoopBillsAStallToTheRequestsItDelays injects one 50 ms stall
// into a 1000 req/s schedule served by a single connection. Every
// request must still be sent, and the ones that were due while the
// connection was stuck must be timed from when they were due, not from
// when they finally left.
func TestOpenLoopBillsAStallToTheRequestsItDelays(t *testing.T) {
	const (
		service = 200 * time.Microsecond
		stall   = 50 * time.Millisecond
		stallAt = 50
		total   = 200
	)
	clk := &fakeClock{now: time.Unix(0, 0)}
	var order []int
	send := func(_, seq int) (outcome, int, bool) {
		order = append(order, seq)
		if seq == stallAt {
			clk.Sleep(stall)
		} else {
			clk.Sleep(service)
		}
		return outOK, 1, true
	}
	// The requests due while the connection was stuck are also kept apart.
	stuck := func(due time.Time) bool {
		d := due.Sub(time.Unix(0, 0))
		return d >= stallAt*time.Millisecond && d < stallAt*time.Millisecond+stall
	}
	st, used := runOpen(clk, send, openParams{rate: 1000, dur: total * time.Millisecond, window: 50 * time.Millisecond, workers: 1, busy: stuck})
	if used < total || st.sent != total || st.ok != total {
		t.Fatalf("sent %d ok %d of %d (consumed %d): a late request was skipped", st.sent, st.ok, total, used)
	}
	for i, seq := range order {
		if seq != i {
			t.Fatalf("request %d sent in position %d: order not kept", seq, i)
		}
	}
	// Request 51 was due at 51 ms but could not leave before 100 ms:
	// 49 ms late. Each later one gains back interval − service = 0.8 ms,
	// so ⌈49/0.8⌉ = 62 requests leave late. Timed from their due time,
	// the stalled request and the 61 behind it that left more than
	// 0.8 ms late (plus 0.2 ms of service) took longer than 1 ms.
	if got := st.late.Above(time.Microsecond); got != 62 {
		t.Errorf("%d requests left late, want 62", got)
	}
	if got := st.lat.Above(time.Millisecond); got != 62 {
		t.Errorf("%d requests slower than 1 ms from their due time, want 62", got)
	}
	if worst := nsToMS(st.late.Percentile(100)); worst < 48.5 || worst > 49.5 {
		t.Errorf("worst lateness %.2f ms, want 49 ms", worst)
	}
	if worst := nsToMS(st.lat.Percentile(100)); worst < 49.5 || worst > 50.5 {
		t.Errorf("worst latency %.2f ms, want the 50 ms stall", worst)
	}
	if in, out := st.split[1].Count(), st.split[0].Count(); in != 50 || out != total-50 {
		t.Errorf("%d requests filed as due during the stall and %d as not, want 50 and %d", in, out, total-50)
	}
	if fast := st.split[1].Count() - st.split[1].Above(time.Millisecond); fast != 0 {
		t.Errorf("%d requests due during the stall were answered within 1 ms of their due time", fast)
	}
	// Timed from the send instead, only the stalled request would stand
	// out. The windows are keyed by due time: the stall hits the second
	// and third 50 ms windows, not the first or the last.
	if len(st.windows) != 4 {
		t.Fatalf("%d windows, want 4", len(st.windows))
	}
	for i, wantSlow := range []bool{false, true, true, false} {
		slow := st.windows[i].lat.Above(time.Millisecond) > 0
		if slow != wantSlow {
			t.Errorf("window %d slow = %v, want %v", i, slow, wantSlow)
		}
		if st.windows[i].ok != 50 {
			t.Errorf("window %d holds %d requests, want 50", i, st.windows[i].ok)
		}
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	st := newPhaseStats(time.Second)
	st.record(0, time.Millisecond, outOK, 10)
	st.record(0, time.Millisecond, outShed, 0)
	st.record(0, time.Millisecond, outFailed, 0)
	if st.sent != 3 || st.ok != 1 || st.failed != 2 || st.shed != 1 {
		t.Fatalf("sent/ok/failed/shed = %d/%d/%d/%d", st.sent, st.ok, st.failed, st.shed)
	}
	if got := st.lat.Above(time.Second); got != 2 {
		t.Errorf("%d samples beyond 1 s, want the 2 failures", got)
	}
}

func testChain(t *testing.T) *chain {
	t.Helper()
	c, err := newChain([]string{
		"keyword search relational databases", "keyword query reformulation structured data",
		"top ranking probabilistic databases", "query suggestion keyword search engines",
		"random walk similarity graph", "hidden markov model decoding",
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeneratorIsAFunctionOfItsSeed(t *testing.T) {
	c := testChain(t)
	a := zipfDataset(c, "http_zipf", 7, 0, 40, 500, 5)
	b := zipfDataset(c, "http_zipf", 7, 0, 40, 500, 5)
	other := zipfDataset(c, "http_zipf", 8, 0, 40, 500, 5)
	same := func(x, y *dataset) bool {
		if len(x.Pool) != len(y.Pool) || len(x.Order) != len(y.Order) {
			return false
		}
		for i := range x.Pool {
			if x.Pool[i] != y.Pool[i] {
				return false
			}
		}
		for i := range x.Order {
			if x.Order[i] != y.Order[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different datasets")
	}
	if same(a, other) {
		t.Error("different seeds, same dataset")
	}
	faulted := 0
	for _, i := range a.Order {
		if int(i) >= 40 {
			faulted++
		}
	}
	if faulted == 0 || faulted > len(a.Order)/4 {
		t.Errorf("%d of %d requests faulted, want about a tenth", faulted, len(a.Order))
	}
}

func TestMissStreamNeverRepeatsAKey(t *testing.T) {
	d := missDataset(testChain(t), "http_miss", 3, 0, 300, 50)
	seen := map[string]bool{}
	for _, r := range d.Pool {
		n := len(strings.Fields(r.Q))
		if n < 4 || n > 7 {
			t.Fatalf("query %q has %d terms, want 4–7", r.Q, n)
		}
		if seen[r.Q] {
			t.Fatalf("query %q repeats", r.Q)
		}
		seen[r.Q] = true
	}
	if _, ok := d.at(len(d.Pool)); ok {
		t.Error("a never-repeating stream wrapped around")
	}
}

func TestInjectedFaultsLeaveTheVocabulary(t *testing.T) {
	c := testChain(t)
	rng := rand.New(rand.NewSource(5))
	kinds := map[string]int{}
	for i := 0; i < 300; i++ {
		q := c.query(rng, 2+rng.Intn(2))
		f, kind, ok := c.injectFault(rng, q)
		if !ok {
			continue
		}
		kinds[kind]++
		unknown := 0
		for _, tok := range f {
			if !c.known[tok] {
				unknown++
			}
		}
		if unknown == 0 {
			t.Fatalf("%v → %v (%s): no token left the vocabulary", q, f, kind)
		}
	}
	for _, k := range []string{"typo", "runon", "split"} {
		if kinds[k] == 0 {
			t.Errorf("no %s fault in 300 draws", k)
		}
	}
}

func TestDatasetRoundTripsThroughJSON(t *testing.T) {
	d := zipfDataset(testChain(t), "http_zipf", 1, 400, 30, 100, 5)
	path := t.TempDir() + "/d.json"
	if err := saveJSON(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := loadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != d.Workload || got.Seed != d.Seed || got.K != d.K || len(got.Pool) != len(d.Pool) || len(got.Order) != len(d.Order) {
		t.Fatalf("round trip changed the dataset: %+v", got)
	}
	for i := range d.Pool {
		if got.Pool[i] != d.Pool[i] {
			t.Fatalf("pool entry %d: %+v != %+v", i, got.Pool[i], d.Pool[i])
		}
	}
}
