package kqr_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kqr"
	"kqr/internal/artifact"
)

// liveEngine opens the bibliography corpus in live mode.
func liveEngine(t *testing.T) *kqr.Engine {
	t.Helper()
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestLazyPromotionStaysLazy: a promotion builds the next generation in
// the state of the one it replaces. A lazy engine that has served a
// query promotes without a precompute or a pack and stays lazy — its
// snapshot carries no tables; once warmed, the next promotion
// precomputes the successor in full.
func TestLazyPromotionStaysLazy(t *testing.T) {
	eng := liveEngine(t)
	if _, err := eng.Reformulate([]string{"uncertain", "data"}, 5); err != nil {
		t.Fatal(err)
	}
	promote := func(pid int) kqr.GenerationInfo {
		t.Helper()
		if err := eng.Ingest([]kqr.Delta{{Op: kqr.InsertTuple, Table: "papers", Values: []any{pid, "lazy promotion probe", 1}}}); err != nil {
			t.Fatal(err)
		}
		info, err := eng.Promote(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	if info := promote(9001); info.Precompute != 0 || info.Pack != 0 {
		t.Fatalf("a lazy engine's promotion precomputed for %v and packed for %v", info.Precompute, info.Pack)
	}
	path := filepath.Join(t.TempDir(), "promoted.snapshot")
	if err := eng.SaveArtifacts(path); err != nil {
		t.Fatal(err)
	}
	for kind, rows := range readSnapshotFile(t, path).Tables {
		if rows != nil {
			t.Fatalf("the promoted lazy generation saved a %s table", artifact.TableKind(kind))
		}
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info := promote(9002); info.Precompute == 0 || info.Pack == 0 {
		t.Fatalf("a warmed engine's promotion precomputed for %v and packed for %v", info.Precompute, info.Pack)
	}
}

func TestCloseTermsUnknownFieldTypedError(t *testing.T) {
	eng := liveEngine(t)
	_, err := eng.CloseTerms("probabilistic", 5, "papers.abstract")
	if !errors.Is(err, kqr.ErrUnknownField) {
		t.Fatalf("unknown field error = %v, want ErrUnknownField", err)
	}
	// The message enumerates what is available so a caller can correct
	// the field without a second round trip.
	if !strings.Contains(err.Error(), "papers.title") {
		t.Errorf("error %q does not list the available fields", err)
	}
	// The empty field (no filter) and a real field still work.
	if _, err := eng.CloseTerms("probabilistic", 5, ""); err != nil {
		t.Fatalf("unfiltered CloseTerms: %v", err)
	}
	if _, err := eng.CloseTerms("probabilistic", 5, "papers.title"); err != nil {
		t.Fatalf("filtered CloseTerms: %v", err)
	}
}

func TestLiveDisabledTypedError(t *testing.T) {
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingestErr := eng.Ingest([]kqr.Delta{{
		Op: kqr.InsertTuple, Table: "papers", Values: []any{90, "t", 1},
	}})
	if !errors.Is(ingestErr, kqr.ErrLiveDisabled) {
		t.Errorf("Ingest on non-live engine = %v, want ErrLiveDisabled", ingestErr)
	}
	if _, err := eng.Promote(context.Background()); !errors.Is(err, kqr.ErrLiveDisabled) {
		t.Errorf("Promote on non-live engine = %v, want ErrLiveDisabled", err)
	}
}

// TestQueriesRaceAcrossPromotions hammers the read path from many
// goroutines while the main goroutine drives several promotions, and
// asserts the observed epoch never goes backwards. Run under -race this
// is the proof that generation swapping introduces no data races and no
// hot-path locks.
func TestQueriesRaceAcrossPromotions(t *testing.T) {
	eng := liveEngine(t)
	const readers = 4
	const promotions = 4

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for !stop.Load() {
				epoch := eng.Epoch()
				if epoch < last {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				if _, err := eng.Reformulate([]string{"probabilistic", "data"}, 3); err != nil {
					errs <- fmt.Errorf("Reformulate at epoch %d: %w", epoch, err)
					return
				}
				if _, err := eng.SimilarTerms("uncertain", 3); err != nil {
					errs <- fmt.Errorf("SimilarTerms at epoch %d: %w", epoch, err)
					return
				}
			}
		}()
	}

	for i := 0; i < promotions; i++ {
		err := eng.Ingest([]kqr.Delta{{
			Op:    kqr.InsertTuple,
			Table: "papers",
			Values: []any{
				100 + i, fmt.Sprintf("probabilistic stream processing %d", i), 1,
			},
		}})
		if err != nil {
			t.Fatalf("promotion %d ingest: %v", i, err)
		}
		info, err := eng.Promote(context.Background())
		if err != nil {
			t.Fatalf("promotion %d: %v", i, err)
		}
		if info.Epoch != uint64(i+2) {
			t.Fatalf("promotion %d produced epoch %d", i, info.Epoch)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := eng.Epoch(); got != promotions+1 {
		t.Errorf("final epoch = %d, want %d", got, promotions+1)
	}
}

// TestLoadArtifactsProvenanceParity asserts the two snapshot-restore
// paths — Options.ArtifactPath at Open and a later LoadArtifacts call —
// record identical provenance, and that LoadArtifacts clears a previous
// fallback.
func TestLoadArtifactsProvenanceParity(t *testing.T) {
	warm, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := warm.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/offline.snapshot"
	if err := warm.SaveArtifacts(path); err != nil {
		t.Fatal(err)
	}

	atOpen, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer atOpen.Close()

	// Open with a missing snapshot first: provenance records the
	// fallback, and the later LoadArtifacts replaces it wholesale.
	late, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: path + ".missing"})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if info := late.Artifact(); info.Loaded || info.FallbackReason == "" {
		t.Fatalf("missing-snapshot provenance = %+v", info)
	}
	if err := late.LoadArtifacts(path); err != nil {
		t.Fatal(err)
	}

	want, got := atOpen.Artifact(), late.Artifact()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("provenance mismatch:\n  Open path: %+v\n  LoadArtifacts: %+v", want, got)
	}
	if !got.Loaded || got.Path != path || got.FallbackReason != "" {
		t.Errorf("LoadArtifacts provenance = %+v", got)
	}
}

// TestReloadArtifactsRacesPromoteEpochMonotone is the SIGHUP scenario:
// snapshot reloads (save → ReloadArtifacts) race concurrent
// ingest+promote cycles while readers hammer the query path. A reload
// that loses the race to a promotion fails with the artifact
// fingerprint sentinel — the snapshot was taken over the pre-promotion
// corpus — and must leave the engine untouched; a reload that wins
// bumps the epoch like any other transition. Under -race this asserts
// the epoch stays strictly monotone and equals 1 + promotions +
// successful reloads, and that queries never error mid-swap.
func TestReloadArtifactsRacesPromoteEpochMonotone(t *testing.T) {
	eng := liveEngine(t)
	path := filepath.Join(t.TempDir(), "reload.snapshot")
	const readers = 3
	const rounds = 4

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+2*rounds)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for !stop.Load() {
				epoch := eng.Epoch()
				if epoch < last {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				if _, err := eng.SimilarTerms("probabilistic", 3); err != nil {
					errs <- fmt.Errorf("SimilarTerms at epoch %d: %w", epoch, err)
					return
				}
			}
		}()
	}

	var reloads atomic.Uint64
	var race sync.WaitGroup
	race.Add(2)
	go func() {
		defer race.Done()
		for i := 0; i < rounds; i++ {
			if err := eng.SaveArtifacts(path); err != nil {
				errs <- fmt.Errorf("save %d: %w", i, err)
				return
			}
			switch err := eng.ReloadArtifacts(path); {
			case err == nil:
				reloads.Add(1)
			case errors.Is(err, artifact.ErrFingerprint):
				// A promotion landed between save and reload; the stale
				// snapshot is correctly refused and nothing swapped.
			default:
				errs <- fmt.Errorf("reload %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer race.Done()
		for i := 0; i < rounds; i++ {
			err := eng.Ingest([]kqr.Delta{{
				Op:     kqr.InsertTuple,
				Table:  "papers",
				Values: []any{800 + i, fmt.Sprintf("reload race %d", i), 1},
			}})
			if err != nil {
				errs <- fmt.Errorf("ingest %d: %w", i, err)
				return
			}
			if _, err := eng.Promote(context.Background()); err != nil {
				errs <- fmt.Errorf("promote %d: %w", i, err)
				return
			}
		}
	}()
	race.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want := uint64(1 + rounds + int(reloads.Load()))
	if got := eng.Epoch(); got != want {
		t.Errorf("final epoch = %d, want %d (%d promotions, %d reloads)", got, want, rounds, reloads.Load())
	}
}
