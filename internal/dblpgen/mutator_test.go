package dblpgen

import (
	"reflect"
	"strings"
	"testing"

	"kqr/internal/live"
	"kqr/internal/relstore"
)

func mutatorCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := Generate(Config{Seed: 3, Topics: 3, Confs: 6, Authors: 30, Papers: 120})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMutatorDeterministic: Batch must be a pure function of
// (config, seq) — that property is what lets a resuming CDC feeder use
// the mutator as its replay buffer.
func TestMutatorDeterministic(t *testing.T) {
	c := mutatorCorpus(t)
	cfg := MutatorConfig{Batches: 9, BatchSize: 7}
	m1, err := NewMutator(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMutator(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Read m2 out of order to prove per-seq independence.
	for _, seq := range []uint64{9, 1, 5, 2, 9, 3, 4, 6, 7, 8} {
		b1, ok1, err1 := m1.Batch(seq)
		b2, ok2, err2 := m2.Batch(seq)
		if err1 != nil || err2 != nil || !ok1 || !ok2 {
			t.Fatalf("seq %d: ok=(%v,%v) err=(%v,%v)", seq, ok1, ok2, err1, err2)
		}
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("seq %d: batches differ", seq)
		}
	}
	if _, ok, _ := m1.Batch(10); ok {
		t.Fatal("batch past Batches not exhausted")
	}
}

// TestMutatorCountsReconcile replays the whole stream into a set and
// checks the Counts ground truth: every delete hits a pid this stream
// inserted, nothing cascades, and the net row delta is exact.
func TestMutatorCountsReconcile(t *testing.T) {
	c := mutatorCorpus(t)
	m, err := NewMutator(c, MutatorConfig{Batches: 12, BatchSize: 10, DeleteFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int64]bool{}
	inserts, deletes := 0, 0
	for seq := uint64(1); ; seq++ {
		muts, ok, err := m.Batch(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sawFresh := false
		for _, mu := range muts {
			if mu.Insert {
				if rows[mu.PID] {
					t.Fatalf("seq %d reinserts pid %d", seq, mu.PID)
				}
				rows[mu.PID] = true
				inserts++
				if strings.HasPrefix(mu.Title, m.FreshTerm(seq)) {
					sawFresh = true
				}
				continue
			}
			if !rows[mu.PID] {
				t.Fatalf("seq %d deletes pid %d this stream never inserted", seq, mu.PID)
			}
			delete(rows, mu.PID)
			deletes++
		}
		if !sawFresh {
			t.Fatalf("seq %d carries no fresh marker term", seq)
		}
	}
	wantIns, wantDel := m.Counts()
	if inserts != wantIns || deletes != wantDel {
		t.Fatalf("replayed %d/%d inserts/deletes, Counts says %d/%d", inserts, deletes, wantIns, wantDel)
	}
	if len(rows) != wantIns-wantDel {
		t.Fatalf("net rows %d, want %d", len(rows), wantIns-wantDel)
	}
}

// TestMutatorBatchesValidate: every batch must pass live ingestion
// against the corpus it was built for.
func TestMutatorBatchesValidate(t *testing.T) {
	c := mutatorCorpus(t)
	mgr, err := live.NewManager(c.DB, live.Config{}, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	m, err := NewMutator(c, MutatorConfig{Batches: 4, BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		muts, ok, err := m.Batch(seq)
		if err != nil || !ok {
			t.Fatalf("seq %d: ok=%v err=%v", seq, ok, err)
		}
		deltas := make([]live.Delta, len(muts))
		for i, mu := range muts {
			if mu.Insert {
				deltas[i] = live.Delta{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
					relstore.Int(mu.PID), relstore.String(mu.Title), relstore.Int(mu.Conf)}}
			} else {
				deltas[i] = live.Delta{Op: live.OpDelete, Table: "papers", Key: relstore.Int(mu.PID)}
			}
		}
		if err := mgr.Ingest(deltas); err != nil {
			t.Fatalf("seq %d rejected: %v", seq, err)
		}
	}
}
