package live

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"kqr/internal/randomwalk"
	"kqr/internal/testcorpus"
)

// TestPromotePacksNextGeneration: a promotion over a warmed generation
// must hand readers a generation whose rows are all already in the
// packed table (nothing left in the overlay, nothing recomputed on
// read), recording the pack phase in the provenance.
func TestPromotePacksNextGeneration(t *testing.T) {
	m := mustManager(t, Options{})
	warm(t, m.Current())
	if err := m.Ingest([]Delta{insertPaper(900, "packed tables survive promotion", 1)}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sim := g.Sim.(*randomwalk.Extractor)
	walks, searches := sim.Computes(), g.Clos.Computes()
	for _, v := range g.TG.TermNodeIDs() {
		if _, _, ok := g.Sim.SimRow(v); !ok {
			t.Fatalf("epoch %d: term %d has no row after promotion", g.Provenance.Epoch, v)
		}
		g.Clos.Row(v)
	}
	if sim.Computes() != walks || g.Clos.Computes() != searches {
		t.Fatal("a promoted, warmed generation computed rows on read")
	}
	// Pack on a complete store must keep serving the same table rows.
	g.Sim.Pack()
	if rowCount(g.Sim) != g.TG.NumTermNodes() {
		t.Fatalf("repack lost rows: %d of %d published", rowCount(g.Sim), g.TG.NumTermNodes())
	}
}

// TestPackedTablesAcrossPromoteSwapRace hammers the query path from
// reader goroutines while promotions and reloads swap generations
// underneath them. Readers pin one generation per iteration, so every
// decode must be served consistently from that generation's packed
// table (or, right after a cold swap, its lazy rows); run under -race
// this is the publication-safety test for the row stores.
func TestPackedTablesAcrossPromoteSwapRace(t *testing.T) {
	m := mustManager(t, Options{})
	warm(t, m.Current())

	const readers, swaps, promotions = 4, 3, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := m.Current()
				// "uncertain" and "data" exist in every generation this
				// test produces (inserts only, plus fresh-corpus swaps).
				refs, err := g.Core.Reformulate([]string{"uncertain", "data"}, 4)
				if err != nil {
					t.Errorf("epoch %d: %v", g.Provenance.Epoch, err)
					return
				}
				if len(refs) == 0 {
					t.Errorf("epoch %d: no reformulations", g.Provenance.Epoch)
					return
				}
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
			// Alternate warmed and cold reloads so readers cross both
			// the packed and the compute-into-overlay paths mid-race.
			if i%2 == 0 {
				warm(t, g)
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
			if err := m.Ingest([]Delta{insertPaper(int64(950+i), fmt.Sprintf("packed race %d", i), 2)}); err != nil {
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
}
