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
		retired = append(retired, g.Provenance.Epoch)
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

// TestTransitionsPublishThroughOneSeam drives every way a generation
// becomes current through a recording journal. For each transition the
// journal must see the stamped next generation before any reader can,
// the epoch rule must hold, provenance must carry the mode, each
// replaced generation must retire exactly once — and a failing journal
// must leave Current, Epoch and Pending exactly as they were.
func TestTransitionsPublishThroughOneSeam(t *testing.T) {
	fresh := func(t *testing.T, m *Manager) *Generation {
		t.Helper()
		g, err := m.Build(m.Current().DB)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T, m *Manager) error
		epoch   uint64 // 0: refused by the epoch rule
		mode    string
		deltas  int
		retires int
	}{
		// NewManager's own call, on a manager that has a journal.
		{"initial", func(t *testing.T, m *Manager) error {
			_, err := m.publish(nil, fresh(t, m), 1, "initial", nil)
			return err
		}, 1, "initial", 0, 0},
		{"promote", func(t *testing.T, m *Manager) error {
			_, err := m.Promote(context.Background())
			return err
		}, 2, "full", 1, 1},
		{"reload", func(t *testing.T, m *Manager) error {
			_, err := m.Swap(fresh(t, m))
			return err
		}, 2, "reload", 0, 1},
		{"bootstrap", func(t *testing.T, m *Manager) error {
			return m.Install(fresh(t, m), 5, "bootstrap")
		}, 5, "bootstrap", 0, 1},
		{"bootstrap self-install, same epoch", func(t *testing.T, m *Manager) error {
			return m.Install(m.Current(), 1, "bootstrap")
		}, 1, "bootstrap", 0, 0},
		{"bootstrap self-install, later epoch", func(t *testing.T, m *Manager) error {
			return m.Install(m.Current(), 3, "bootstrap")
		}, 3, "bootstrap", 0, 0},
		{"bootstrap of another generation at the same epoch", func(t *testing.T, m *Manager) error {
			return m.Install(fresh(t, m), 1, "bootstrap")
		}, 0, "", 0, 0},
		{"bootstrap backwards", func(t *testing.T, m *Manager) error {
			return m.Install(m.Current(), 0, "bootstrap")
		}, 0, "", 0, 0},
		{"advance", func(t *testing.T, m *Manager) error {
			_, err := m.Advance("reload")
			return err
		}, 2, "reload", 0, 1},
	} {
		for _, failJournal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/journal-fails=%t", tc.name, failJournal), func(t *testing.T) {
				var retired []*Generation
				m := mustManager(t, Options{OnRetire: func(g *Generation) { retired = append(retired, g) }})
				if err := m.Ingest([]Delta{insertPaper(100, "seam test", 1)}); err != nil {
					t.Fatal(err)
				}
				before := m.Current()
				var journaled []*Generation
				m.SetJournal(func(next *Generation, deltas []Delta) error {
					journaled = append(journaled, next)
					if m.Current() == next || m.Epoch() != 1 {
						t.Errorf("journal ran after epoch %d became visible", next.Provenance.Epoch)
					}
					if p := next.Provenance; p.Epoch != tc.epoch || p.Mode != tc.mode || p.PromotedAt.IsZero() ||
						p.TotalTerms != next.TG.NumTermNodes() || len(deltas) != tc.deltas {
						t.Errorf("journal saw epoch %d mode %q promoted_at %v total_terms %d, %d deltas",
							p.Epoch, p.Mode, p.PromotedAt, p.TotalTerms, len(deltas))
					}
					if failJournal {
						return fmt.Errorf("disk full")
					}
					return nil
				})

				err := tc.run(t, m)
				if tc.epoch == 0 || failJournal {
					if err == nil {
						t.Fatal("transition succeeded")
					}
					if tc.epoch == 0 && len(journaled) != 0 {
						t.Errorf("refused transition was journaled %d times", len(journaled))
					}
					if m.Current() != before || m.Epoch() != 1 || m.Pending() != 1 || before.Provenance.Mode != "initial" {
						t.Errorf("failed transition changed state: current replaced %t, epoch %d, pending %d, mode %q",
							m.Current() != before, m.Epoch(), m.Pending(), before.Provenance.Mode)
					}
					if len(retired) != 0 {
						t.Errorf("failed transition retired %d generations", len(retired))
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				g := m.Current()
				if len(journaled) != 1 || journaled[0] != g {
					t.Fatalf("journaled %d generations, want the one now current", len(journaled))
				}
				if m.Epoch() != tc.epoch || g.Provenance.Mode != tc.mode || g.Provenance.PromotedAt.IsZero() {
					t.Errorf("current epoch %d mode %q promoted_at %v", m.Epoch(), g.Provenance.Mode, g.Provenance.PromotedAt)
				}
				if len(retired) != tc.retires || tc.retires == 1 && retired[0] != before {
					t.Errorf("retired %d generations, want %d (the replaced one)", len(retired), tc.retires)
				}
				if want := 1 - tc.deltas; m.Pending() != want {
					t.Errorf("pending = %d, want %d", m.Pending(), want)
				}
			})
		}
	}
}
