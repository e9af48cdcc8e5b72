// Package hmm implements the first-order hidden Markov model that the
// paper's online stage uses to turn per-term candidate lists into
// reformulated queries (§V-B), together with its two top-k decoders,
// both run by the flat, reusable Decoder:
//
//   - TopKViterbi: the paper's Algorithm 2 — Viterbi generalized to keep
//     the k best partial paths per state per step, O(m·n²·k·log k).
//   - TopKAStar: the paper's Algorithm 3 — one Viterbi forward pass to
//     collect exact heuristic scores (Decoder.Forward), then a
//     best-first A* backward search that expands only the partial paths
//     that can still reach the top k (Decoder.Search).
//
// The model is positional: step c has its own state list (the candidate
// terms of query slot c), its own emission column, and its own
// row-major transition table from the states of step c-1 (filled from
// closeness rows in practice).
//
// The pointer-based reference implementations the Decoder is tested
// bit-for-bit against live in the test-support package hmmtest.
package hmm

import (
	"errors"
	"fmt"
	"math"
)

// Model describes one decoding problem. All probabilities are plain
// (not log) values, so zero stays a meaningful "impossible" marker; a
// long enough model underflows float64, which the decoders treat as
// zero and HasPath tells apart (the core engine caps query length so
// that its smoothed models cannot).
type Model struct {
	// Pi is the initial distribution over the states of step 0.
	Pi []float64
	// Emit[c][i] is the emission probability of the observed query term
	// c from hidden state i of step c. len(Emit) is the step count m;
	// len(Emit[c]) is the state count of step c.
	Emit [][]float64
	// Trans holds one row-major transition table per step:
	// Trans[c][from*len(Emit[c])+to] is the probability of moving from
	// state from of step c-1 to state to of step c (1 <= c < m).
	// Trans[0] is unused, and a one-step model needs no tables.
	Trans [][]float64
}

// Steps returns the number of steps m.
func (m *Model) Steps() int { return len(m.Emit) }

// Validate checks structural consistency: at least one step, matching
// Pi length, non-empty state lists, non-negative finite initial,
// emission and transition probabilities, and, when m > 1, one
// transition table per step of the length its two state lists make.
func (m *Model) Validate() error {
	if len(m.Emit) == 0 {
		return fmt.Errorf("hmm: model has no steps")
	}
	if len(m.Pi) != len(m.Emit[0]) {
		return fmt.Errorf("hmm: Pi has %d entries, step 0 has %d states", len(m.Pi), len(m.Emit[0]))
	}
	for c, col := range m.Emit {
		if len(col) == 0 {
			return fmt.Errorf("hmm: step %d has no states", c)
		}
		for i, p := range col {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("hmm: emission[%d][%d] = %v invalid", c, i, p)
			}
		}
	}
	for i, p := range m.Pi {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("hmm: Pi[%d] = %v invalid", i, p)
		}
	}
	if err := m.checkTrans(); err != nil {
		return err
	}
	for c := 1; c < len(m.Emit); c++ {
		for i, p := range m.Trans[c] {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("hmm: step %d transition[%d] = %v invalid", c, i, p)
			}
		}
	}
	return nil
}

// checkTrans checks that a multi-step model has one transition table
// per step, each len(Emit[c-1])·len(Emit[c]) long.
func (m *Model) checkTrans() error {
	if len(m.Emit) <= 1 {
		return nil
	}
	if len(m.Trans) != len(m.Emit) {
		return fmt.Errorf("hmm: %d-step model has %d transition tables, want one per step", len(m.Emit), len(m.Trans))
	}
	for c := 1; c < len(m.Emit); c++ {
		if want := len(m.Emit[c-1]) * len(m.Emit[c]); len(m.Trans[c]) != want {
			return fmt.Errorf("hmm: transition table of step %d has %d entries, want %d", c, len(m.Trans[c]), want)
		}
	}
	return nil
}

// ErrUnderflow reports a model whose every path has positive factors
// but a probability that underflows float64 — "too long to score", not
// "no path exists".
var ErrUnderflow = errors.New("hmm: every path's probability underflows float64")

// HasPath reports whether some path has every factor positive — a
// nonzero probability in exact arithmetic. A decoder that returns no
// path for a model that has one lost them all to underflow.
func (m *Model) HasPath() bool {
	reach := make([]bool, len(m.Emit[0]))
	for i := range reach {
		reach[i] = m.Pi[i] > 0 && m.Emit[0][i] > 0
	}
	for c := 1; c < len(m.Emit); c++ {
		n, tr := len(m.Emit[c]), m.Trans[c]
		next := make([]bool, n)
		for j := range next {
			for i, ok := range reach {
				if ok && m.Emit[c][j] > 0 && tr[i*n+j] > 0 {
					next[j] = true
					break
				}
			}
		}
		reach = next
	}
	for _, ok := range reach {
		if ok {
			return true
		}
	}
	return false
}

// Path is a decoded hidden-state sequence with its probability
// (Eq. 10: π(s₀)·B₀(s₀)·Π A·B).
type Path struct {
	States []int
	Score  float64
}

// Score recomputes a path's probability under the model; used by tests
// and by callers that post-process paths.
func (m *Model) Score(states []int) (float64, error) {
	if len(states) != m.Steps() {
		return 0, fmt.Errorf("hmm: path has %d states, model has %d steps", len(states), m.Steps())
	}
	for c, s := range states {
		if s < 0 || s >= len(m.Emit[c]) {
			return 0, fmt.Errorf("hmm: state %d out of range at step %d", s, c)
		}
	}
	// Same structural error Validate reports; without this guard a
	// multi-step path on a model without its tables would panic below.
	if err := m.checkTrans(); err != nil {
		return 0, err
	}
	score := m.Pi[states[0]] * m.Emit[0][states[0]]
	for c := 1; c < len(states); c++ {
		score *= m.Trans[c][states[c-1]*len(m.Emit[c])+states[c]] * m.Emit[c][states[c]]
	}
	return score, nil
}

// AStarStats reports the work split between the two stages of
// Algorithm 3, for the paper's Figure 8.
type AStarStats struct {
	// ForwardStates counts Viterbi cell evaluations.
	ForwardStates int
	// Expanded counts A* node expansions (heap pops).
	Expanded int
	// Pushed counts A* nodes generated.
	Pushed int
}
