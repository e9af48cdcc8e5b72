package hmm_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	. "kqr/internal/hmm"
	"kqr/internal/hmm/hmmtest"
)

// tinyModel: 3 steps, 2 states each, hand-checkable.
func tinyModel() *Model {
	return &Model{
		Pi:   []float64{0.6, 0.4},
		Emit: [][]float64{{0.9, 0.1}, {0.5, 0.5}, {0.3, 0.7}},
		Trans: [][]float64{
			nil,
			{0.7, 0.3, 0.4, 0.6}, // step 1, row-major: from 0, then from 1
			{0.5, 0.5, 0.2, 0.8}, // step 2
		},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
	}{
		{"no steps", &Model{}},
		{"pi mismatch", &Model{Pi: []float64{1}, Emit: [][]float64{{0.5, 0.5}}}},
		{"empty step", &Model{Pi: []float64{1}, Emit: [][]float64{{1}, {}}, Trans: [][]float64{nil, {}}}},
		{"negative emission", &Model{Pi: []float64{1}, Emit: [][]float64{{-0.5}}}},
		{"nan pi", &Model{Pi: []float64{math.NaN()}, Emit: [][]float64{{1}}}},
		{"missing trans", &Model{Pi: []float64{1}, Emit: [][]float64{{1}, {1}}}},
		{"missing step table", &Model{Pi: []float64{1}, Emit: [][]float64{{1}, {1}, {1}}, Trans: [][]float64{nil, {1}}}},
		{"short trans table", &Model{Pi: []float64{1, 1}, Emit: [][]float64{{1, 1}, {1, 1}}, Trans: [][]float64{nil, {1, 1, 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.m.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
	if err := tinyModel().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
}

func TestScore(t *testing.T) {
	m := tinyModel()
	got, err := m.Score([]int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6 * 0.9 * 0.3 * 0.5 * 0.8 * 0.7
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	if _, err := m.Score([]int{0, 1}); err == nil {
		t.Fatal("wrong-length path accepted")
	}
	if _, err := m.Score([]int{0, 1, 5}); err == nil {
		t.Fatal("out-of-range state accepted")
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	m := tinyModel()
	vp, ok, err := hmmtest.Viterbi(m)
	if err != nil || !ok {
		t.Fatalf("Viterbi: %v, ok=%v", err, ok)
	}
	bf, err := hmmtest.BruteForce(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vp.Score-bf[0].Score) > 1e-12 {
		t.Fatalf("Viterbi score %v != brute force %v", vp.Score, bf[0].Score)
	}
	recomputed, err := m.Score(vp.States)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recomputed-vp.Score) > 1e-12 {
		t.Fatalf("Viterbi path score inconsistent: %v vs %v", recomputed, vp.Score)
	}
}

func TestViterbiAllZero(t *testing.T) {
	m := &Model{
		Pi:    []float64{1, 1},
		Emit:  [][]float64{{0, 0}, {1, 1}},
		Trans: [][]float64{nil, {1, 1, 1, 1}},
	}
	_, ok, err := hmmtest.Viterbi(m)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("zero-probability model decoded a path")
	}
}

func TestSingleStepModel(t *testing.T) {
	m := &Model{Pi: []float64{0.2, 0.8}, Emit: [][]float64{{0.9, 0.5}}}
	p, ok, err := hmmtest.Viterbi(m)
	if err != nil || !ok {
		t.Fatalf("%v %v", err, ok)
	}
	if p.States[0] != 1 { // 0.8*0.5=0.4 > 0.2*0.9=0.18
		t.Fatalf("picked state %d", p.States[0])
	}
	topk, err := m.TopKViterbi(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk) != 2 {
		t.Fatalf("TopKViterbi on 1-step model returned %d paths", len(topk))
	}
	astar, _, err := m.TopKAStar(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(astar) != 2 || math.Abs(astar[0].Score-0.4) > 1e-12 {
		t.Fatalf("TopKAStar = %+v", astar)
	}
}

func assertSameScores(t *testing.T, name string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s returned %d paths, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9*(1+want[i].Score) {
			t.Fatalf("%s score[%d] = %v, want %v", name, i, got[i].Score, want[i].Score)
		}
	}
}

func TestTopKMatchesBruteForceOnTiny(t *testing.T) {
	m := tinyModel()
	for _, k := range []int{1, 2, 3, 5, 8, 100} {
		want, err := hmmtest.BruteForce(m, k)
		if err != nil {
			t.Fatal(err)
		}
		gotV, err := m.TopKViterbi(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, "TopKViterbi", gotV, want)
		gotA, _, err := m.TopKAStar(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, "TopKAStar", gotA, want)
	}
}

// randomModel builds a model with some zero transitions/emissions to
// exercise pruning paths.
func randomModel(rng *rand.Rand, steps, maxStates int) *Model {
	ns := make([]int, steps)
	for i := range ns {
		ns[i] = 1 + rng.Intn(maxStates)
	}
	emit := make([][]float64, steps)
	for c := range emit {
		emit[c] = make([]float64, ns[c])
		for i := range emit[c] {
			if rng.Float64() < 0.15 {
				continue // zero emission
			}
			emit[c][i] = rng.Float64()
		}
	}
	pi := make([]float64, ns[0])
	for i := range pi {
		pi[i] = rng.Float64()
	}
	// Dense row-major transition tables per step with some zeros.
	trans := make([][]float64, steps)
	for c := 1; c < steps; c++ {
		trans[c] = make([]float64, ns[c-1]*ns[c])
		for x := range trans[c] {
			if rng.Float64() < 0.2 {
				continue
			}
			trans[c][x] = rng.Float64()
		}
	}
	return &Model{Pi: pi, Emit: emit, Trans: trans}
}

// Property: all three decoders agree with brute force on random models,
// including models where pruning eliminates most paths.
func TestDecodersAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 1+rng.Intn(5), 4)
		k := 1 + rng.Intn(6)
		want, err := hmmtest.BruteForce(m, k)
		if err != nil {
			return false
		}
		gotV, err := m.TopKViterbi(k)
		if err != nil {
			return false
		}
		gotA, _, err := m.TopKAStar(k)
		if err != nil {
			return false
		}
		if len(gotV) != len(want) || len(gotA) != len(want) {
			return false
		}
		for i := range want {
			tol := 1e-9 * (1 + want[i].Score)
			if math.Abs(gotV[i].Score-want[i].Score) > tol {
				return false
			}
			if math.Abs(gotA[i].Score-want[i].Score) > tol {
				return false
			}
			// Every returned path's score must be its true model score.
			s, err := m.Score(gotA[i].States)
			if err != nil || math.Abs(s-gotA[i].Score) > tol {
				return false
			}
			s, err = m.Score(gotV[i].States)
			if err != nil || math.Abs(s-gotV[i].Score) > tol {
				return false
			}
		}
		// Viterbi top-1 agrees when any path exists.
		vp, ok, err := hmmtest.Viterbi(m)
		if err != nil {
			return false
		}
		if ok != (len(want) > 0) {
			return false
		}
		if ok && math.Abs(vp.Score-want[0].Score) > 1e-9*(1+want[0].Score) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: scores come back sorted descending and paths are distinct.
func TestTopKOrderedAndDistinctProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng, 2+rng.Intn(4), 5)
		k := 2 + rng.Intn(8)
		for _, decode := range []func() ([]Path, error){
			func() ([]Path, error) { return m.TopKViterbi(k) },
			func() ([]Path, error) { ps, _, err := m.TopKAStar(k); return ps, err },
		} {
			ps, err := decode()
			if err != nil {
				return false
			}
			seen := make(map[string]bool)
			for i, p := range ps {
				if i > 0 && p.Score > ps[i-1].Score+1e-12 {
					return false
				}
				key := ""
				for _, s := range p.States {
					key += string(rune('a' + s))
				}
				if seen[key] {
					return false // duplicate path
				}
				seen[key] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAStarStats(t *testing.T) {
	m := tinyModel()
	_, stats, err := m.TopKAStar(3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForwardStates != 6 { // 3 steps × 2 states
		t.Fatalf("ForwardStates = %d, want 6", stats.ForwardStates)
	}
	if stats.Expanded < 3 || stats.Pushed < stats.Expanded {
		t.Fatalf("stats = %+v implausible", stats)
	}
}

// A* must not expand dramatically more than needed for small k on a
// larger model — the point of Algorithm 3 over Algorithm 2.
func TestAStarPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomModel(rng, 6, 20)
	_, stats, err := m.TopKAStar(1)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive would push ~20^6 nodes; A* with an exact heuristic must
	// stay tiny.
	if stats.Pushed > 20*6*10 {
		t.Fatalf("A* pushed %d nodes for top-1; pruning broken", stats.Pushed)
	}
}

func TestTopKWithKLessThanOne(t *testing.T) {
	m := tinyModel()
	ps, err := m.TopKViterbi(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("k=0 returned %d paths, want clamped to 1", len(ps))
	}
	pa, _, err := m.TopKAStar(-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != 1 {
		t.Fatalf("A* k=-5 returned %d paths", len(pa))
	}
}

func TestZeroTransitionsBlockPaths(t *testing.T) {
	// Two steps; transition only allows 0->1.
	m := &Model{
		Pi:    []float64{1, 1},
		Emit:  [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		Trans: [][]float64{nil, {0, 1, 0, 0}},
	}
	ps, err := m.TopKViterbi(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].States[0] != 0 || ps[0].States[1] != 1 {
		t.Fatalf("paths = %+v, want only [0 1]", ps)
	}
	pa, _, err := m.TopKAStar(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != 1 || pa[0].States[0] != 0 || pa[0].States[1] != 1 {
		t.Fatalf("A* paths = %+v, want only [0 1]", pa)
	}
}
