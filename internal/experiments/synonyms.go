package experiments

import (
	"sort"

	"kqr/internal/graph"
	"kqr/internal/randomwalk"
)

// SynonymRecallRow records one extractor's ability to surface the
// planted quasi-synonym partners (which never co-occur with their
// targets) within its top-maxK candidates.
type SynonymRecallRow struct {
	Method string
	// Found counts pairs whose partner appears within maxK.
	Found int
	// Pairs is the number of planted pairs probed (both directions,
	// best rank kept).
	Pairs int
	// MeanRank is the average 1-based rank over found partners.
	MeanRank float64
	MaxK     int
}

// SynonymRecall quantifies the Table II case study across every planted
// pair: for each pair and each extractor, take the better rank of the
// two probe directions and count it as found when within maxK. The
// expected shape is total recall for the contextual walk, total
// blindness for co-occurrence, and the individual walk in between (or
// equal to contextual on homogeneous corpora).
func (s *Setup) SynonymRecall(maxK int) ([]SynonymRecallRow, error) {
	if maxK < 1 {
		maxK = 64
	}
	// Distinct pairs.
	seen := map[string]bool{}
	var pairs [][2]string
	for a, b := range s.Corpus.Truth.Synonym {
		if seen[a] || seen[b] {
			continue
		}
		seen[a], seen[b] = true, true
		pairs = append(pairs, [2]string{a, b})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })

	type provider struct {
		name string
		rank func(from, to graph.NodeID) (int, error)
	}
	walkRank := func(ex *randomwalk.Extractor) func(from, to graph.NodeID) (int, error) {
		return func(from, to graph.NodeID) (int, error) {
			list, err := ex.SimilarNodes(from, maxK)
			if err != nil {
				return -1, err
			}
			for i, sn := range list {
				if sn.Node == to {
					return i, nil
				}
			}
			return -1, nil
		}
	}
	providers := []provider{
		{"contextual", walkRank(s.SimCtx)},
		{"individual", walkRank(s.SimInd)},
		{"cooccurrence", func(from, to graph.NodeID) (int, error) {
			list, err := s.SimCo.SimilarNodes(from, maxK)
			if err != nil {
				return -1, err
			}
			for i, sn := range list {
				if sn.Node == to {
					return i, nil
				}
			}
			return -1, nil
		}},
	}

	out := make([]SynonymRecallRow, 0, len(providers))
	for _, p := range providers {
		row := SynonymRecallRow{Method: p.name, MaxK: maxK}
		rankSum := 0
		for _, pair := range pairs {
			aNode, errA := s.TAT.ResolveTerm(pair[0])
			bNode, errB := s.TAT.ResolveTerm(pair[1])
			if errA != nil || errB != nil {
				continue // pair too rare in this corpus sample
			}
			row.Pairs++
			best := -1
			for _, dir := range [][2]graph.NodeID{{aNode, bNode}, {bNode, aNode}} {
				r, err := p.rank(dir[0], dir[1])
				if err != nil {
					return nil, err
				}
				if r >= 0 && (best < 0 || r < best) {
					best = r
				}
			}
			if best >= 0 {
				row.Found++
				rankSum += best + 1
			}
		}
		if row.Found > 0 {
			row.MeanRank = float64(rankSum) / float64(row.Found)
		}
		out = append(out, row)
	}
	return out, nil
}
