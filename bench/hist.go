package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is the benchmark's one latency recorder: a log-linear histogram
// of durations up to 10 s. Each power of two is cut into histSub equal
// buckets and a percentile reads back the bucket's midpoint, so from
// 1 µs up the relative error is at most 1/(2·histSub) < 1 %; below
// that, where the traced replay times single table reads, buckets are
// whole nanoseconds wide and the floor is 8 ns.
// Record touches one counter and never allocates, so it can sit on the
// generator's send path without disturbing what it measures.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64 // nanoseconds, for the mean
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMinExp  = 3 // 8 ns: everything faster lands in bucket 0
	histMinNS   = 1 << histMinExp
	histMaxNS   = 10_000_000_000
	histOctaves = 34 - histMinExp // up to 2^34 ns, which covers 10 s
	histBuckets = histOctaves * histSub
)

// bucketOf maps nanoseconds to a bucket index.
func bucketOf(ns uint64) int {
	if ns < histMinNS {
		return 0
	}
	if ns > histMaxNS {
		ns = histMaxNS
	}
	exp := bits.Len64(ns) - 1 // ns in [2^exp, 2^(exp+1))
	sub := (ns << histSubBits >> uint(exp)) & (histSub - 1)
	return (exp-histMinExp)*histSub + int(sub)
}

// bucketMid is the midpoint, in nanoseconds, of bucket i.
func bucketMid(i int) float64 {
	exp := uint(i/histSub + histMinExp)
	width := float64(uint64(1)<<exp) / histSub
	return float64(uint64(1)<<exp) + (float64(i%histSub)+0.5)*width
}

// Record adds one duration.
func (h *hist) Record(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

// Merge adds o's samples to h.
func (h *hist) Merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Count is the number of samples recorded.
func (h *hist) Count() uint64 { return h.n }

// Percentile returns the p-th percentile (0 < p ≤ 100) in nanoseconds,
// or 0 for an empty histogram.
func (h *hist) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p*float64(h.n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// Above counts the samples strictly slower than d.
func (h *hist) Above(d time.Duration) uint64 {
	var n uint64
	for i := bucketOf(uint64(d)) + 1; i < histBuckets; i++ {
		n += uint64(h.counts[i])
	}
	return n
}

// pmaxLadder lists the percentiles PMax chooses from, in hundredths of
// a percent so the "ten beyond" test stays in integers.
var pmaxLadder = []uint64{5000, 9000, 9900, 9990, 9999}

// PMax returns the highest percentile of the ladder that still has at
// least ten samples beyond it — the deepest tail the sample supports —
// and its value in nanoseconds. With fewer than twenty samples it falls
// back to the median.
func (h *hist) PMax() (p, ns float64) {
	best := pmaxLadder[0]
	for _, q := range pmaxLadder {
		if h.n*(10000-q)/10000 >= 10 {
			best = q
		}
	}
	p = float64(best) / 100
	return p, h.Percentile(p)
}

// median returns the median of xs (the mean of the two middle values
// for an even count), or 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func nsToMS(ns float64) float64 { return ns / 1e6 }
func nsToUS(ns float64) float64 { return ns / 1e3 }
