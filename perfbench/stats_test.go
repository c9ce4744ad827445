package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestSummarizeReportsHighestTailWithTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p50   float64
		tailQ float64
		tail  float64
	}{
		{n: 1000, p50: 500, tailQ: 0.99, tail: 990},
		{n: 999, p50: 500, tailQ: 0.95, tail: 950},
		{n: 200, p50: 100, tailQ: 0.95, tail: 190},
		{n: 40, p50: 20, tailQ: 0.75, tail: 30},
		{n: 36, p50: 18, tailQ: 0.50, tail: 18},
		{n: 20, p50: 10, tailQ: 0.50, tail: 10},
		{n: 19, p50: 10, tailQ: 0, tail: 0},
		{n: 0, p50: 0, tailQ: 0, tail: 0},
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		if got.N != c.n || got.P50 != c.p50 || got.TailQ != c.tailQ || got.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want p50=%v tail p%v=%v", c.n, got, c.p50, c.tailQ*100, c.tail)
		}
	}
}

func TestSummarizeTailRuleHoldsForEveryCount(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		got := summarize(seq(n))
		if got.TailQ == 0 {
			if n-1-rank(0.5, n) >= minBeyond {
				t.Fatalf("n=%d: p50 has enough samples beyond but no tail was reported", n)
			}
			continue
		}
		beyond := n - int(got.Tail) // values are 1..n
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%v has %d samples beyond, want >= %d", n, got.TailQ*100, beyond, minBeyond)
		}
		for _, q := range tailLadder {
			if q <= got.TailQ {
				break
			}
			if n-1-rank(q, n) >= minBeyond {
				t.Fatalf("n=%d: reported p%v but p%v also has %d beyond", n, got.TailQ*100, q*100, minBeyond)
			}
		}
	}
}

func TestSLOOKRatioCountsFailuresAsMisses(t *testing.T) {
	msec := func(v float64) int64 { return int64(v * 1e6) }
	ss := []sample{
		{Dist: 0, OK: true, End: msec(1)},            // hit
		{Dist: 1, OK: true, End: msec(30)},           // over 25 ms
		{Dist: 0, OK: false, End: msec(1)},           // failed fast: still a miss
		{Dist: 2, OK: true, End: msec(200)},          // hit under 250 ms
		{Dist: 3, OK: true, End: msec(3000)},         // over 2.5 s
		{Dist: 3, OK: true, End: msec(2400)},         // hit
		{Dist: 2, OK: false, Err: "x", End: msec(5)}, // error: miss
	}
	if got, want := sloOKRatio(ss), 3.0/7.0; got != want {
		t.Fatalf("slo_ok_ratio = %v, want %v", got, want)
	}
	if got := sloOKRatio(nil); got != 0 {
		t.Fatalf("empty slo_ok_ratio = %v, want 0", got)
	}
}

func TestOpenLoopLatencyTimedFromDue(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	// Due at 0 while the previous request held the lane until 5 ms; the
	// generator sent at 5.1 ms and the reply came at 7 ms.
	open := sample{Open: true, Due: 0, Ready: ms(5), Start: ms(5.1), End: ms(7)}
	if got := open.latency(); got != 7*time.Millisecond {
		t.Errorf("open-loop latency = %v, want 7ms (from due time)", got)
	}
	if got := open.genLag(); got != 100*time.Microsecond {
		t.Errorf("open-loop generator lag = %v, want 100µs (from ready time)", got)
	}
	closed := sample{Ready: ms(10), Start: ms(10.2), End: ms(12)}
	if got := closed.latency(); got != 1800*time.Microsecond {
		t.Errorf("closed-loop latency = %v, want 1.8ms (from start)", got)
	}
	if got := closed.genLag(); got != 200*time.Microsecond {
		t.Errorf("closed-loop generator lag = %v, want 200µs", got)
	}
}

func TestPoissonOffsetsAreSeededSortedAndAtRate(t *testing.T) {
	a := poissonOffsets(rand.New(rand.NewPCG(7, 1)), 20, 1000*time.Second)
	b := poissonOffsets(rand.New(rand.NewPCG(7, 1)), 20, 1000*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d sends", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at send %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not ascending at %d", i)
		}
		if a[i] >= 1000*time.Second {
			t.Fatalf("offset %v past the span", a[i])
		}
	}
	if len(a) != 20000 {
		t.Fatalf("%d sends in 1000 s at 20/s, want exactly 20000", len(a))
	}
	// Poisson spacing: exponential gaps, so mean and standard deviation
	// both near 1/rate.
	var sum, sumSq float64
	for i := 1; i < len(a); i++ {
		g := (a[i] - a[i-1]).Seconds()
		sum += g
		sumSq += g * g
	}
	n := float64(len(a) - 1)
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-0.05) > 0.002 || math.Abs(sd-0.05) > 0.003 {
		t.Fatalf("gap mean %.4f s, sd %.4f s; want both ~0.05", mean, sd)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestSliceTimingKeepsTheWholeSetsTailQuantile(t *testing.T) {
	cases := []struct {
		n, tailGroups int
		tailQ         float64
	}{
		{n: 40000, tailGroups: 10, tailQ: 0.99}, // 4000 per group still supports p99
		{n: 2800, tailGroups: 2, tailQ: 0.99},   // 1400 per group; 3 groups of 933 would not
		{n: 400, tailGroups: 2, tailQ: 0.95},
		{n: 40, tailGroups: 1, tailQ: 0.75},
		{n: 19, tailGroups: 0, tailQ: 0},
	}
	for _, c := range cases {
		got := sliceTiming(seq(c.n))
		if got.N != c.n || got.TailQ != c.tailQ || got.TailGroups != c.tailGroups || got.P50Groups != min(numSlices, c.n) {
			t.Errorf("n=%d: got %+v, want tail p%g over %d groups", c.n, got, c.tailQ*100, c.tailGroups)
		}
	}
}

func TestSliceTimingIsTheMedianOverGroups(t *testing.T) {
	// Ten groups of 1000 in completion order; one group (a burst of
	// interference) is ten times slower. The medians over groups ignore
	// it, where a plain p99 over all samples lands inside it.
	var xs []float64
	for g := range 10 {
		scale := 1.0
		if g == 3 {
			scale = 10
		}
		for i := range 1000 {
			xs = append(xs, scale*float64(i+1))
		}
	}
	got := sliceTiming(xs)
	if got.P50 != 500 || got.TailQ != 0.99 || got.TailGroups != 10 || got.Tail != 990 {
		t.Fatalf("got %+v, want p50 500 and p99 990 over 10 groups", got)
	}
	if plain := summarize(append([]float64(nil), xs...)); plain.Tail < 5000 {
		t.Fatalf("plain p99 %v: the slow group should dominate it", plain.Tail)
	}
}
