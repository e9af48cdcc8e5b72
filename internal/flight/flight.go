// Package flight provides the concurrency primitives of the offline
// stage: a generic singleflight group that deduplicates concurrent
// computations of the same key, and a bounded worker pool for
// embarrassingly parallel fan-out.
//
// Group is what the row store behind the lazy per-term tables
// (random-walk similarity, closeness, co-occurrence) computes a cold row
// under: without it, N concurrent cold misses for one term each run the
// full walk, N−1 of them wasted. ForEach is the offline stage's fan-out
// — the paper's per-term extraction is independent across terms, so
// precompute throughput should scale with cores.
//
// Everything here is stdlib-only and safe for concurrent use.
package flight

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Group coalesces concurrent calls with the same key into a single
// execution: the first caller runs fn, later callers with the same key
// block and share its result. A fresh call starts once the first
// completes (results are not memoized — that is the caller's cache's
// job). The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	wg   sync.WaitGroup
	val  V
	err  error
	dups int // callers coalesced onto this call, for tests; guarded by Group.mu
}

// Do runs fn for key, deduplicating against in-flight calls: a caller
// that finds key in flight waits for that call and returns its result.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err
	}
	c := &call[V]{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	return c.val, c.err
}

// ForEach runs fn(i) for every i in [0, n) across a pool of workers
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0)), returning the
// first error encountered. After an error — or once ctx is cancelled —
// no new indices are started; in-flight calls finish. When ctx is
// cancelled before all indices ran and no fn returned an error, the
// context's error is returned.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next     atomic.Int64 // next index to claim
		done     atomic.Int64 // indices completed without error
		stopped  atomic.Bool  // error seen or ctx cancelled
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stopped.Store(true)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	if done.Load() == int64(n) {
		return nil // every index ran; a late cancellation changes nothing
	}
	return ctx.Err()
}
