package core

import "fmt"

// SlotExplanation breaks down why one slot of a reformulated query was
// chosen: the substitute's similarity to the original term (the HMM
// emission evidence) and its closeness to the previous slot's substitute
// (the transition evidence).
type SlotExplanation struct {
	// Original and Substitute are the slot's terms.
	Original   string
	Substitute string
	// Sim is sim(substitute, original) under the engine's provider;
	// 1 when the slot kept its original term.
	Sim float64
	// PrevCloseness is clos(previous substitute, this substitute);
	// 0 for the first slot.
	PrevCloseness float64
}

// Explain reports the per-slot evidence for a suggestion previously
// produced for the query. The suggestion must have the query's length
// (deletion-mode suggestions cannot be aligned slot-by-slot).
func (e *Engine) Explain(query, suggestion []string) ([]SlotExplanation, error) {
	if len(suggestion) != len(query) {
		return nil, fmt.Errorf("core: suggestion has %d terms, query has %d; only full-length suggestions can be explained",
			len(suggestion), len(query))
	}
	queryNodes, err := e.resolve(nil, query)
	if err != nil {
		return nil, err
	}
	subNodes, err := e.resolve(nil, suggestion)
	if err != nil {
		return nil, err
	}
	out := make([]SlotExplanation, len(query))
	for i := range query {
		sim, err := e.sim.Sim(queryNodes[i], subNodes[i])
		if err != nil {
			return nil, err
		}
		exp := SlotExplanation{
			Original:   query[i],
			Substitute: suggestion[i],
			Sim:        sim,
		}
		if i > 0 {
			exp.PrevCloseness = e.clos.Clos(subNodes[i-1], subNodes[i])
		}
		out[i] = exp
	}
	return out, nil
}
