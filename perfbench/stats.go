package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the value rests on a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, and whether at least minBeyond samples lie above its rank.
// samples must be sorted ascending.
func percentile(sorted []time.Duration, p float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// latencies is one operation class's latency samples.
type latencies []time.Duration

func (l latencies) sorted() []time.Duration {
	s := append([]time.Duration(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantilesUs returns the p50 and p99 in microseconds, or an error
// naming the class when there are too few samples to report p99.
func (l latencies) quantilesUs(class string) (p50, p99 float64, err error) {
	s := l.sorted()
	a, ok50 := percentile(s, 50)
	b, ok99 := percentile(s, 99)
	if !ok50 || !ok99 {
		return 0, 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p99", class, len(s), minBeyond)
	}
	return us(a), us(b), nil
}

// sample is one operation's latency and when it was issued, relative to
// the start of its window.
type sample struct{ at, lat time.Duration }

type samples []sample

// sliceLen is the length of the slices a window is cut into. Tail
// latency on a shared host moves with bursts of outside load lasting a
// second or two; the median over slices of a per-slice figure is much
// steadier from run to run than the figure over the whole window.
const sliceLen = 5 * time.Second

// slices returns how many sliceLen slices a window of d holds (at least
// one).
func slices(d time.Duration) int { return max(1, int(d/sliceLen)) }

// sliceMedians cuts s by issue time into n equal slices of a window of
// length d, and returns the medians over slices of the completion rate
// (per second) and of the p50 and p99 latencies (µs). Every slice must
// hold enough samples to report its p99.
func (s samples) sliceMedians(n int, d time.Duration, class string) (rate, p50, p99 float64, err error) {
	width := d / time.Duration(n)
	parts := make([]latencies, n)
	for _, x := range s {
		k := min(int(x.at/width), n-1)
		parts[k] = append(parts[k], x.lat)
	}
	rates := make([]float64, n)
	p50s := make([]float64, n)
	p99s := make([]float64, n)
	for k, part := range parts {
		if p50s[k], p99s[k], err = part.quantilesUs(fmt.Sprintf("%s slice %d", class, k)); err != nil {
			return 0, 0, 0, err
		}
		rates[k] = float64(len(part)) / width.Seconds()
	}
	return median(rates), median(p50s), median(p99s), nil
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
