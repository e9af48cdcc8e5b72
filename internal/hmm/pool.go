package hmm

import "sync"

// decoderPool recycles warmed Decoders across queries so steady-state
// decoding touches no allocator. Buffers inside a pooled Decoder keep
// their high-water capacity.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a Decoder from the shared pool; pair with
// PutDecoder once every result obtained from it has been consumed or
// copied.
func GetDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// PutDecoder returns d to the shared pool. The caller must not use d,
// or any paths or stats previously returned by it, afterwards.
func PutDecoder(d *Decoder) { decoderPool.Put(d) }

// TopKViterbi implements the paper's Algorithm 2 — the Viterbi
// recurrence generalized so every (step, state) cell keeps its k best
// incoming partial paths, with zero-probability (including underflowed)
// candidates pruned. It runs on a pooled Decoder and returns
// caller-owned paths. It may return fewer than k paths when fewer
// positive-probability complete paths exist.
func (m *Model) TopKViterbi(k int) ([]Path, error) {
	d := GetDecoder()
	ps, err := d.TopKViterbi(m, k)
	out := clonePaths(ps)
	PutDecoder(d)
	return out, err
}

// TopKAStar implements the paper's Algorithm 3 — a Viterbi forward pass
// collecting exact heuristic scores, then a best-first A* backward
// search that expands only partial paths that can still reach the top
// k. It runs on a pooled Decoder and returns caller-owned paths and
// stats.
func (m *Model) TopKAStar(k int) ([]Path, *AStarStats, error) {
	d := GetDecoder()
	ps, stats, err := d.TopKAStar(m, k)
	out := clonePaths(ps)
	var statsOut *AStarStats
	if stats != nil {
		cp := *stats
		statsOut = &cp
	}
	PutDecoder(d)
	return out, statsOut, err
}

// clonePaths deep-copies arena-aliased paths into caller-owned memory:
// one Path slice plus one shared states backing array.
func clonePaths(ps []Path) []Path {
	if ps == nil {
		return nil
	}
	total := 0
	for _, p := range ps {
		total += len(p.States)
	}
	flat := make([]int, total)
	out := make([]Path, len(ps))
	at := 0
	for i, p := range ps {
		dst := flat[at : at+len(p.States)]
		copy(dst, p.States)
		out[i] = Path{States: dst, Score: p.Score}
		at += len(p.States)
	}
	return out
}
