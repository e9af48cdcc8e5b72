package kqr_test

import (
	"context"
	"reflect"
	"testing"

	"kqr"
)

// TestEngineWarm warms the full vocabulary and checks the packed tables
// hold exactly what lazy computation produces: a warmed engine and a
// cold one answer identically.
func TestEngineWarm(t *testing.T) {
	for _, mode := range []kqr.SimilarityMode{kqr.ContextualWalk, kqr.Cooccurrence} {
		eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Warm(context.Background()); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		cold, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode})
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Reformulate([]string{"uncertain", "data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Reformulate([]string{"uncertain", "data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: warmed engine differs from lazy engine: %v vs %v", mode, got, want)
		}
	}
}

func TestEngineWarmCancelled(t *testing.T) {
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Warm(ctx); err == nil {
		t.Fatal("cancelled Warm returned nil")
	}
}
