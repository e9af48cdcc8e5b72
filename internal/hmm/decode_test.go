package hmm_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	. "kqr/internal/hmm"
	"kqr/internal/hmm/hmmtest"
)

// Regression: Score on a multi-step model with nil Trans must return
// the Validate error instead of panicking (it used to dereference
// m.Trans unconditionally).
func TestScoreNilTransRegression(t *testing.T) {
	m := &Model{Pi: []float64{1, 0}, Emit: [][]float64{{0.5, 0.5}, {0.5, 0.5}}}
	if _, err := m.Score([]int{0, 1}); err == nil {
		t.Fatal("Score on nil-Trans multi-step model returned no error")
	}
	// Single-step models never consult Trans and must keep working.
	one := &Model{Pi: []float64{0.5}, Emit: [][]float64{{0.8}}}
	got, err := one.Score([]int{0})
	if err != nil || got != 0.5*0.8 {
		t.Fatalf("single-step Score = (%v, %v)", got, err)
	}
}

// underflowModel scales every probability down so that many (or all)
// complete-path products underflow float64 to exactly zero while every
// individual factor stays positive.
func underflowModel(rng *rand.Rand, steps, maxStates int, scale float64) *Model {
	m := randomModel(rng, steps, maxStates)
	for c := range m.Emit {
		for i := range m.Emit[c] {
			m.Emit[c][i] *= scale
		}
	}
	inner := m.Trans
	if inner != nil {
		m.Trans = func(step, from, to int) float64 { return inner(step, from, to) * scale }
	}
	return m
}

// Property (underflow bugfix): candidates whose score product
// underflows to exactly zero are dropped, so TopKViterbi never returns
// a zero-score path and still agrees with BruteForce, which filters
// score > 0.
func TestTopKViterbiUnderflowPruned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 1e-108 per factor: with 2 factors per step, 3+ steps push many
		// products below ~1e-324 (the smallest subnormal), others survive.
		m := underflowModel(rng, 3+rng.Intn(3), 4, 1e-108)
		k := 1 + rng.Intn(8)
		want, err := hmmtest.BruteForce(m, k)
		if err != nil {
			return false
		}
		for _, decode := range []func() ([]Path, error){
			func() ([]Path, error) { return m.TopKViterbi(k) },
			func() ([]Path, error) { return hmmtest.TopKViterbiRef(m, k) },
			func() ([]Path, error) { ps, _, err := m.TopKAStar(k); return ps, err },
		} {
			got, err := decode()
			if err != nil {
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].Score == 0 || got[i].Score != want[i].Score {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Fully-underflowed models must decode to zero paths, not k zero-score
// ones.
func TestTopKViterbiTotalUnderflow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := underflowModel(rng, 4, 3, 1e-160)
	ps, err := m.TopKViterbi(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.Score == 0 {
			t.Fatalf("returned zero-score path %v", p.States)
		}
	}
	want, err := hmmtest.BruteForce(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(want) {
		t.Fatalf("TopKViterbi returned %d paths, BruteForce %d", len(ps), len(want))
	}
}

func samePathsExact(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].States) != len(b[i].States) {
			return false
		}
		for c := range a[i].States {
			if a[i].States[c] != b[i].States[c] {
				return false
			}
		}
	}
	return true
}

// Property (tentpole): the flat pooled decoder is bit-identical to the
// pointer-path reference — same scores (==, no tolerance), same states,
// same A* work counters — across random models, including ones with
// heavy pruning and underflow.
func TestDecoderBitIdenticalToRef(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 1+rng.Intn(5), 5)
		if rng.Intn(4) == 0 {
			m = underflowModel(rng, 3+rng.Intn(3), 4, 1e-108)
		}
		k := 1 + rng.Intn(8)

		wantV, err := hmmtest.TopKViterbiRef(m, k)
		if err != nil {
			return false
		}
		gotV, err := m.TopKViterbi(k)
		if err != nil || !samePathsExact(gotV, wantV) {
			return false
		}

		wantA, wantStats, err := hmmtest.TopKAStarRef(m, k)
		if err != nil {
			return false
		}
		gotA, gotStats, err := m.TopKAStar(k)
		if err != nil || !samePathsExact(gotA, wantA) {
			return false
		}
		return *gotStats == *wantStats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The warmed decoder must not allocate: every buffer sits at its
// high-water mark, results alias the arenas, and the transition closure
// belongs to the model. Run AllocsPerRun twice and keep the minimum so
// an unlucky GC-driven pool refill cannot flake the assertion.
func TestDecoderZeroAllocsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	models := make([]*Model, 8)
	for i := range models {
		models[i] = randomModel(rng, 2+rng.Intn(4), 8)
	}
	d := new(Decoder)
	warm := func() {
		for _, m := range models {
			if _, err := d.TopKViterbi(m, 10); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.TopKAStar(m, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	warm()

	i := 0
	run := func() float64 {
		return testing.AllocsPerRun(200, func() {
			m := models[i%len(models)]
			i++
			if _, err := d.TopKViterbi(m, 10); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.TopKAStar(m, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs := run()
	if a := run(); a < allocs {
		allocs = a
	}
	if allocs != 0 {
		t.Fatalf("warmed decode path allocates %.1f times per op, want 0", allocs)
	}
}

// Algorithm 3's two halves are callable on their own (Fig. 8 times
// them apart, Fig. 9 reuses one forward pass across k): one Forward
// must serve any number of Searches and give exactly TopKAStar's
// paths, and a Search with no matching Forward behind it must be an
// error, not a read of some other model's heuristic table.
func TestForwardSearchSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := new(Decoder)
	m := randomModel(rng, 4, 6)
	if _, _, err := d.Search(m, 3); err == nil {
		t.Fatal("Search on a fresh Decoder returned no error")
	}
	if _, err := d.TopKViterbi(m, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Search(m, 3); err == nil {
		t.Fatal("Search after TopKViterbi alone (offsets laid out, no heuristic table) returned no error")
	}
	if err := d.Forward(m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, 3} {
		want, wantStats, err := m.TopKAStar(k)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := d.Search(m, k)
		if err != nil {
			t.Fatal(err)
		}
		if !samePathsExact(got, want) || *stats != *wantStats {
			t.Fatalf("k=%d: Search after one Forward diverged from TopKAStar", k)
		}
	}
	other := randomModel(rng, 5, 6)
	if _, _, err := d.Search(other, 3); err == nil {
		t.Fatal("Search on a model of another shape returned no error")
	}
	if err := d.Forward(&Model{}); err == nil {
		t.Fatal("Forward on an empty model returned no error")
	}
}

// HasPath tells a model whose every path underflowed — the decoders
// return none, yet every factor along some path is positive — from one
// where no path exists, which a zero transition makes.
func TestHasPathTellsUnderflowFromNoPath(t *testing.T) {
	m := underflowModel(rand.New(rand.NewSource(3)), 4, 3, 1e-160)
	if ps, err := m.TopKViterbi(5); err != nil || len(ps) != 0 || !m.HasPath() {
		t.Fatalf("underflowed model: %d paths (%v), HasPath %v; want none and true", len(ps), err, m.HasPath())
	}
	cut := &Model{Pi: []float64{1}, Emit: [][]float64{{1}, {1}}, Trans: func(int, int, int) float64 { return 0 }}
	if ps, _, err := cut.TopKAStar(5); err != nil || len(ps) != 0 || cut.HasPath() {
		t.Fatalf("model without a path: %d paths (%v), HasPath %v; want none and false", len(ps), err, cut.HasPath())
	}
}
