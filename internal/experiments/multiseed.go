package experiments

import (
	"fmt"
	"math"
)

// Fig5MultiRow summarizes one method's precision across several query
// seeds: mean and sample standard deviation per N.
type Fig5MultiRow struct {
	Method MethodName
	Ns     []int
	Mean   []float64
	Std    []float64
	Seeds  int
}

// Fig5Multi repeats the Fig. 5 experiment over several query-sampling
// seeds and aggregates — the variance check the paper's single 10-query
// run cannot provide.
func (s *Setup) Fig5Multi(numQueries int, seeds []int64) ([]Fig5MultiRow, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	// perMethod[m][n] collects one precision value per seed.
	perMethod := make(map[MethodName][][]float64)
	var ns []int
	for _, seed := range seeds {
		rows, err := s.Fig5(numQueries, seed)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, r := range rows {
			ns = r.Ns
			if perMethod[r.Method] == nil {
				perMethod[r.Method] = make([][]float64, len(r.Ns))
			}
			for i, p := range r.Precision {
				perMethod[r.Method][i] = append(perMethod[r.Method][i], p)
			}
		}
	}
	methods := []MethodName{MethodTAT, MethodRank, MethodCooccur}
	out := make([]Fig5MultiRow, 0, len(methods))
	for _, m := range methods {
		samples := perMethod[m]
		if samples == nil {
			continue
		}
		row := Fig5MultiRow{Method: m, Ns: ns, Seeds: len(seeds)}
		for _, vals := range samples {
			mean, std := meanStd(vals)
			row.Mean = append(row.Mean, mean)
			row.Std = append(row.Std, std)
		}
		out = append(out, row)
	}
	return out, nil
}

// meanStd returns the mean and sample standard deviation.
func meanStd(vals []float64) (float64, float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if len(vals) == 1 {
		return mean, 0
	}
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vals)-1))
}
