package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported tail
// percentile. A p99 of 200 samples rests on two values; this benchmark
// reports the highest of tailLadder that the sample count supports.
const minBeyond = 10

var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// timing summarises one latency sample set: its median and its tail,
// the highest ladder quantile with at least minBeyond samples beyond it.
type timing struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64 // 0 when no ladder quantile has minBeyond samples beyond it
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// summarize sorts xs in place and returns its timing.
func summarize(xs []float64) timing {
	sort.Float64s(xs)
	t := timing{N: len(xs)}
	if t.N == 0 {
		return t
	}
	t.P50 = xs[rank(0.5, t.N)]
	for _, q := range tailLadder {
		i := rank(q, t.N)
		if t.N-1-i >= minBeyond {
			t.Tail, t.TailQ = xs[i], q
			break
		}
	}
	return t
}

// sloLimit is the latency limit an authentication at injected distance
// d must meet: an order of magnitude per shell, from the inline path's
// 25 ms up to 2.5 s for a d = 3 search.
func sloLimit(d int) time.Duration {
	switch {
	case d <= 1:
		return 25 * time.Millisecond
	case d == 2:
		return 250 * time.Millisecond
	default:
		return 2500 * time.Millisecond
	}
}

// sloOKRatio is the share of attempts that authenticated within their
// limit. A failed attempt counts as a miss whatever its latency.
func sloOKRatio(ss []sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	ok := 0
	for _, s := range ss {
		if s.OK && s.latency() <= sloLimit(s.Dist) {
			ok++
		}
	}
	return float64(ok) / float64(len(ss))
}

// sample is one authentication as the generator saw it. Times are Unix
// nanoseconds. Due is the scheduled send time on an open-loop lane.
// Ready is when the lane was free to send it: the later of Due and the
// lane's previous completion (a closed-loop lane has no Due).
type sample struct {
	Open   bool
	Dist   int
	Due    int64
	Ready  int64
	Start  int64
	End    int64
	OK     bool
	Err    string
	Search float64 // WireResult.SearchSeconds
	Client string
	Req    uint64    // trace request ID (traced runs only)
	trace  *reqTrace // client-side connections (traced runs only)
}

// latency of an open-loop request is timed from its due time, so a
// stalled lane charges its backlog to every request that waited behind
// it; a closed-loop request is timed from its start.
func (s sample) latency() time.Duration {
	if s.Open {
		return time.Duration(s.End - s.Due)
	}
	return time.Duration(s.End - s.Start)
}

// genLag is how late the generator started a request after its lane
// was free to send it: generator health, not server latency.
func (s sample) genLag() time.Duration { return time.Duration(s.Start - s.Ready) }

// poissonOffsets draws open-loop send offsets for rate per second over
// span: rate*span sends placed uniformly at random and sorted, which is
// a Poisson process conditioned on its count. Fixing the count keeps
// the offered load identical across seeds; only the spacing varies.
func poissonOffsets(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	n := int(math.Round(rate * span.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// slicedTiming summarises latency samples taken in completion order:
// the median over consecutive groups of each group's p50 and of each
// group's tail. The tail is taken at the quantile the whole sample set
// supports (tailLadder, minBeyond beyond it), in as many groups, up to
// numSlices, as still each support it; a sample set too small to split
// gives one group, its plain tail.
type slicedTiming struct {
	N          int
	P50Groups  int
	TailGroups int
	P50, Tail  float64
	TailQ      float64 // 0 when the samples support no tail
}

func sliceTiming(xs []float64) slicedTiming {
	st := slicedTiming{N: len(xs)}
	if st.N == 0 {
		return st
	}
	st.P50Groups = min(numSlices, st.N)
	var p50s []float64
	for _, g := range groupsOf(xs, st.P50Groups) {
		p50s = append(p50s, quantile(g, 0.5))
	}
	st.P50 = median(p50s)
	st.TailQ = summarize(append([]float64(nil), xs...)).TailQ
	if st.TailQ == 0 {
		return st
	}
	st.TailGroups = 1
	for k := numSlices; k > 1; k-- {
		if n := st.N / k; n-1-rank(st.TailQ, n) >= minBeyond {
			st.TailGroups = k
			break
		}
	}
	var tails []float64
	for _, g := range groupsOf(xs, st.TailGroups) {
		tails = append(tails, quantile(g, st.TailQ))
	}
	st.Tail = median(tails)
	return st
}

// quantile is the nearest-rank q-quantile of xs, which it leaves as is.
func quantile(xs []float64, q float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys[rank(q, len(ys))]
}

// groupsOf cuts xs into k consecutive groups of near-equal size.
func groupsOf(xs []float64, k int) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k : (i+1)*len(xs)/k]
	}
	return out
}
