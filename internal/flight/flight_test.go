package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waiting reports how many callers are coalesced onto key's in-flight
// call, -1 if none is in flight; tests wait on it instead of sleeping.
func waiting[K comparable, V any](g *Group[K, V], key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return -1
}

func TestGroupCoalesces(t *testing.T) {
	var g Group[string, []byte]
	var computations atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	// Leader executes fn and blocks until every follower is queued.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := g.Do("k", func() ([]byte, error) {
			computations.Add(1)
			close(started)
			<-block
			return []byte("v"), nil
		})
		if err != nil || string(v) != "v" {
			t.Errorf("leader got %q, %v", v, err)
		}
	}()
	<-started
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Do("k", func() ([]byte, error) {
				computations.Add(1)
				return []byte("v"), nil
			})
			if err != nil || string(v) != "v" {
				t.Errorf("follower got %q, %v", v, err)
			}
		}()
	}
	// Release the leader only once all n followers are registered as
	// duplicates, making "exactly one computation" deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for waiting(&g, "k") != n {
		if time.Now().After(deadline) {
			t.Fatalf("followers queued: %d of %d", waiting(&g, "k"), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Fatalf("computations = %d, want exactly 1", got)
	}
}

func TestGroupErrorShared(t *testing.T) {
	var g Group[string, []byte]
	want := errors.New("boom")
	_, err := g.Do("k", func() ([]byte, error) { return nil, want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	// Errors are not memoized: the next call runs again.
	v, err := g.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry got %q, %v", v, err)
	}
}

func TestGroupDistinctKeysIndependent(t *testing.T) {
	var g Group[int, int]
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(i, func() (int, error) { n.Add(1); return i, nil })
		}(i)
	}
	wg.Wait()
	if n.Load() != 4 {
		t.Fatalf("distinct keys coalesced: %d computations", n.Load())
	}
}

// TestGroupHammer races many goroutines over a small key space under
// -race: every caller of a key must observe that key's value.
func TestGroupHammer(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := i % 4
			v, err := g.Do(key, func() (int, error) { return key * 10, nil })
			if err != nil || v != key*10 {
				t.Errorf("Do(%d) = %d, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 37
		var hits [n]atomic.Int64
		err := ForEach(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	// The indices past the failing one wait until it is returning its
	// error, so the other worker cannot run the rest of the range while
	// the worker that claimed index 3 has yet to be scheduled. ForEach
	// shows nothing a call could wait on for "the error is recorded", so
	// from then on each of them costs a millisecond: the failing worker
	// would have to stall for a second between its return and its store
	// for a pool that does stop to reach the end.
	failing := make(chan struct{})
	err := ForEach(context.Background(), 2, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			defer close(failing)
			return fmt.Errorf("index %d: %w", i, boom)
		}
		if i > 3 {
			<-failing
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Fail-fast: the error must stop scheduling well before the end.
	if ran.Load() == 1000 {
		t.Fatal("error did not stop the pool")
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 2, 1000, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

func TestForEachCompletedIgnoresLateCancel(t *testing.T) {
	// A context cancelled after every index completed is not an error.
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEach(ctx, 4, 16, func(i int) error {
		if i == 15 {
			cancel()
		}
		return nil
	})
	// Either all 16 completed (nil) or a worker observed the
	// cancellation before claiming its last index — but never a
	// spurious error with all work done.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
