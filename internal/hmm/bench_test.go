package hmm_test

import (
	"math/rand"
	"testing"

	. "kqr/internal/hmm"
	"kqr/internal/hmm/hmmtest"
)

// benchModel builds a representative online model: 6 steps × 20 states,
// dense transitions.
func benchModel(states int) *Model {
	rng := rand.New(rand.NewSource(42))
	return randomModel(rng, 6, states)
}

func BenchmarkViterbi(b *testing.B) {
	m := benchModel(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := hmmtest.Viterbi(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKViterbi(b *testing.B) {
	m := benchModel(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.TopKViterbi(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKAStar(b *testing.B) {
	m := benchModel(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.TopKAStar(10); err != nil {
			b.Fatal(err)
		}
	}
}

// The Ref benchmarks time the retained pointer-path implementations so
// `go test -bench -benchmem` shows the flat decoder's alloc/latency win
// side by side.

func BenchmarkTopKViterbiRef(b *testing.B) {
	m := benchModel(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hmmtest.TopKViterbiRef(m, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKAStarRef(b *testing.B) {
	m := benchModel(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := hmmtest.TopKAStarRef(m, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderTopKAStar times the raw arena decoder without the
// caller-owned copy the Model method performs — the true hot-path cost.
func BenchmarkDecoderTopKAStar(b *testing.B) {
	m := benchModel(20)
	d := new(Decoder)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.TopKAStar(m, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderTopKViterbi is the raw arena Algorithm 2 analogue.
func BenchmarkDecoderTopKViterbi(b *testing.B) {
	m := benchModel(20)
	d := new(Decoder)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.TopKViterbi(m, 10); err != nil {
			b.Fatal(err)
		}
	}
}
