package live

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStalenessMaxDeltasAutoPromotes(t *testing.T) {
	m := mustManager(t, Options{StalenessMaxDeltas: 2})
	if err := m.Ingest([]Delta{insertPaper(100, "first delta", 1)}); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("one delta should not trigger promotion, epoch=%d", m.Epoch())
	}
	if err := m.Ingest([]Delta{insertPaper(101, "second delta", 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Epoch() == 2 }, "count-triggered promotion")
	if m.Pending() != 0 {
		t.Errorf("pending = %d after auto-promote", m.Pending())
	}
}

func TestStalenessMaxAgeAutoPromotes(t *testing.T) {
	m := mustManager(t, Options{StalenessMaxAge: 30 * time.Millisecond})
	if err := m.Ingest([]Delta{insertPaper(100, "aging delta", 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return m.Epoch() == 2 }, "age-triggered promotion")
}

func TestOnRetireObservesOldGeneration(t *testing.T) {
	var mu sync.Mutex
	var retired []uint64
	m := mustManager(t, Options{OnRetire: func(g *Generation) {
		mu.Lock()
		retired = append(retired, g.Epoch)
		mu.Unlock()
	}})
	for i := 0; i < 3; i++ {
		if err := m.Ingest([]Delta{insertPaper(int64(100+i), fmt.Sprintf("retire test %d", i), 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Promote(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retired) != 3 || retired[0] != 1 || retired[1] != 2 || retired[2] != 3 {
		t.Errorf("retired epochs = %v, want [1 2 3]", retired)
	}
}

func TestOnErrorObservesAutoPromoteFailure(t *testing.T) {
	errc := make(chan error, 1)
	m := mustManager(t, Options{
		StalenessMaxDeltas: 1,
		OnError: func(err error) {
			select {
			case errc <- err:
			default:
			}
		},
	})
	// Passes schema validation but fails at apply time (dangling FK).
	if err := m.Ingest([]Delta{insertPaper(100, "orphan", 999)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("OnError never called for failed auto-promotion")
	}
}

func TestConcurrentIngestPromote(t *testing.T) {
	m := mustManager(t, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				pid := int64(1000 + w*100 + i)
				_ = m.Ingest([]Delta{insertPaper(pid, fmt.Sprintf("concurrent %d %d", w, i), 1)})
				if _, err := m.Promote(context.Background()); err != nil {
					t.Errorf("promote: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// All 20 papers must be present regardless of interleaving.
	tbl, err := m.Current().DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 5; i++ {
			pid := int64(1000 + w*100 + i)
			if _, ok := tbl.LookupPK(relstore.Int(pid)); !ok {
				t.Errorf("paper %d lost in concurrent ingest/promote", pid)
			}
		}
	}
	if err := m.Current().DB.CheckIntegrity(); err != nil {
		t.Errorf("integrity: %v", err)
	}
}

func TestEpochMonotonicUnderConcurrentPromotes(t *testing.T) {
	m := mustManager(t, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader asserting monotonic epoch
		defer wg.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := m.Epoch()
			if e < last {
				t.Errorf("epoch went backwards: %d -> %d", last, e)
				return
			}
			last = e
		}
	}()
	for i := 0; i < 5; i++ {
		if err := m.Ingest([]Delta{insertPaper(int64(200+i), fmt.Sprintf("mono %d", i), 2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Promote(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m.Epoch() != 6 {
		t.Errorf("final epoch = %d, want 6", m.Epoch())
	}
}

// TestSwapRacesPromoteEpochMonotone drives Swap (the SIGHUP reload
// path) and Ingest+Promote from separate goroutines while readers watch
// the epoch. Both transitions serialize on promoteMu and each must bump
// the epoch by exactly one, so under -race the observed epoch is
// strictly monotone and the final epoch equals 1 + swaps + promotions.
func TestSwapRacesPromoteEpochMonotone(t *testing.T) {
	m := mustManager(t, Options{})
	const swaps, promotions, readers = 4, 4, 2

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := m.Epoch()
				if e < last {
					t.Errorf("epoch went backwards: %d -> %d", last, e)
					return
				}
				last = e
			}
		}()
	}

	var race sync.WaitGroup
	race.Add(2)
	errc := make(chan error, swaps+promotions)
	go func() {
		defer race.Done()
		for i := 0; i < swaps; i++ {
			db, err := testcorpus.New()
			if err != nil {
				errc <- err
				return
			}
			g, err := m.Build(db)
			if err != nil {
				errc <- err
				return
			}
			if _, err := m.Swap(g); err != nil {
				errc <- fmt.Errorf("swap %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer race.Done()
		for i := 0; i < promotions; i++ {
			if err := m.Ingest([]Delta{insertPaper(int64(700+i), fmt.Sprintf("race %d", i), 2)}); err != nil {
				errc <- fmt.Errorf("ingest %d: %w", i, err)
				return
			}
			if _, err := m.Promote(context.Background()); err != nil {
				errc <- fmt.Errorf("promote %d: %w", i, err)
				return
			}
		}
	}()
	race.Wait()
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := m.Epoch(); got != 1+swaps+promotions {
		t.Errorf("final epoch = %d, want %d", got, 1+swaps+promotions)
	}
}
