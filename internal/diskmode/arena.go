package diskmode

import (
	"sync"

	"kqr/internal/artifact"
)

// frame is one page-sized buffer of the arena. Its buffer is allocated
// on the frame's first fault and reused by every later one.
type frame struct {
	// mu is held shared while a reader copies or probes a row out of
	// buf, and exclusively while a fault fills it. A frame is locked
	// shared only while it is mapped, and exclusively only while it is
	// not, so eviction waits out the readers of the page it drops and
	// no reader ever sees a refilled frame.
	mu  sync.RWMutex
	buf []byte // the page's CRC-verified bytes

	// Guarded by the arena lock. An unmapped frame is on the free list
	// or owned by the one fault filling it.
	mapped bool
	ref    bool   // clock reference bit: read since the hand last passed
	tab    *table // the page held while mapped
	page   int32
}

// table is one paged table of the store with its page → frame map:
// the packed.Pages behind the store's packed.Table of that kind.
type table struct {
	*artifact.PagedTable
	s       *Store
	frameOf []int32 // page → arena frame index, -1 when not resident; guarded by the arena lock
}

// arena is the page cache: a fixed set of page frames, each the size of
// the file's largest page, allocated on first use up to max and never
// freed, replaced by a clock. Resident memory is max frames at most —
// that is the whole budget arithmetic — and nothing a fault or an
// eviction does turns into garbage.
type arena struct {
	mu         sync.Mutex
	frameFreed sync.Cond // a taken frame was mapped or handed back
	frames     []*frame
	free       []int32
	max        int
	frameBytes int
	hand       int

	hits, misses, evictions int64
}

func newArena(max, frameBytes int) *arena {
	a := &arena{frames: make([]*frame, 0, max), free: make([]int32, 0, max), max: max, frameBytes: frameBytes}
	a.frameFreed.L = &a.mu
	return a
}

// take returns an unmapped frame for the caller to fill: a free one, a
// new one while the arena is below max, or the clock's victim, unmapped.
// With every frame being filled it waits for one. The caller holds mu.
func (a *arena) take() int32 {
	for {
		if n := len(a.free); n > 0 {
			fi := a.free[n-1]
			a.free = a.free[:n-1]
			return fi
		}
		if len(a.frames) < a.max {
			a.frames = append(a.frames, &frame{})
			return int32(len(a.frames) - 1)
		}
		// Two sweeps: the first may only clear reference bits.
		for range 2 * len(a.frames) {
			fi := a.hand
			a.hand = (a.hand + 1) % len(a.frames)
			f := a.frames[fi]
			if !f.mapped {
				continue
			}
			if f.ref {
				f.ref = false
				continue
			}
			f.tab.frameOf[f.page] = -1
			f.mapped = false
			a.evictions++
			return int32(fi)
		}
		a.frameFreed.Wait()
	}
}

// giveBack returns a taken frame to the free list. The caller holds mu.
func (a *arena) giveBack(fi int32) {
	a.free = append(a.free, fi)
	a.frameFreed.Broadcast()
}

// pin returns page pg of t read-locked in its frame, faulting it in on
// a miss: the fault reads and verifies the page outside the arena lock,
// into a frame no reader can reach, then maps it. ok is false when the
// page is short or fails its CRC (the frame goes back, nothing is
// mapped). The caller reads the frame and calls f.mu.RUnlock.
func (s *Store) pin(t *table, pg int) (*frame, bool) {
	a := s.arena
	a.mu.Lock()
	if fi := t.frameOf[pg]; fi >= 0 {
		a.hits++
		f := a.frames[fi]
		f.ref = true
		f.mu.RLock()
		a.mu.Unlock()
		return f, true
	}
	a.misses++
	fi := a.take()
	f := a.frames[fi]
	a.mu.Unlock()

	f.mu.Lock() // wait out the readers of the page it held
	if f.buf == nil {
		f.buf = make([]byte, a.frameBytes)
	}
	ok := t.ReadPage(s.f, pg, f.buf) == nil
	f.mu.Unlock()

	a.mu.Lock()
	defer a.mu.Unlock()
	if !ok {
		s.corrupt.Add(1)
		a.giveBack(fi)
		return nil, false
	}
	if other := t.frameOf[pg]; other >= 0 {
		// A racing fault mapped the page first: use its frame.
		a.giveBack(fi)
		f = a.frames[other]
	} else {
		t.frameOf[pg] = fi
		f.tab, f.page, f.mapped = t, int32(pg), true
		a.frameFreed.Broadcast()
	}
	f.ref = true
	f.mu.RLock()
	return f, true
}
