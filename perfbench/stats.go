package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, highest first.
// A "_p99" metric reports the highest of them that still has at least
// minBeyond samples above it, so a short run never reports a tail read off
// one or two outliers.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailBlocks is how many consecutive blocks, in the order the samples were
// taken, a tail is read over: each block's tail follows the percentile rule
// and the metric is their median. A tail read off ten samples is decided by
// whatever happened in the one stretch that produced them: a few slow
// seconds of the host moved the whole run's tail by 2-3x. With blocks they
// move one block, and the median ignores it. Eight blocks, not four, also
// put each block's tail at p90 or p75 rather than p95 or p90: on a shared
// host the slowest 5-10% of requests are the ones a neighbour's burst or a
// collection of the live sessions delayed, and how many there are changed
// from run to run by 2x.
const tailBlocks = 8

// summary is a timing distribution reduced to the numbers the benchmark
// reports: the median, the tail, and the sample count.
type summary struct {
	N      int
	Median float64
	// Tail is the median of BlockTails, each block's tail in sample order.
	Tail       float64
	BlockTails []float64
	// TailPct is the percentile the blocks' tails were read at (the lowest,
	// if block sizes straddle a threshold); 0.5 when too few samples support
	// any higher one.
	TailPct float64
}

// summarize applies the tail rule to samples in the order they were taken
// and then sorts them in place.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	k := min(tailBlocks, n)
	s := summary{N: n, BlockTails: make([]float64, k), TailPct: 1}
	for b := range s.BlockTails {
		var p float64
		s.BlockTails[b], p = tailOf(append([]float64(nil), samples[b*n/k:(b+1)*n/k]...))
		s.TailPct = min(s.TailPct, p)
	}
	s.Tail = medianOf(s.BlockTails)
	sort.Float64s(samples)
	s.Median = median(samples)
	return s
}

// tailOf sorts samples in place and returns the highest ladder percentile
// with at least minBeyond samples beyond it, and that percentile; the
// median and 0.5 when none qualifies.
func tailOf(samples []float64) (float64, float64) {
	sort.Float64s(samples)
	n := len(samples)
	for _, p := range tailLadder {
		rank := nearestRank(p, n)
		if n-rank >= minBeyond {
			return samples[rank-1], p
		}
	}
	return median(samples), 0.5
}

// nearestRank is the 1-based nearest-rank position of percentile p among n
// sorted samples: the smallest rank whose share of samples reaches p.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median of sorted samples (mean of the middle pair for even counts).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of an unsorted slice without reordering it.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// sampleSet collects samples from many goroutines.
type sampleSet struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSampleSet() *sampleSet { return &sampleSet{m: map[string][]float64{}} }

func (s *sampleSet) add(key string, v float64) {
	s.mu.Lock()
	s.m[key] = append(s.m[key], v)
	s.mu.Unlock()
}

// take returns a copy of the samples under key.
func (s *sampleSet) take(key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[key]...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported number with its unit, the sample count behind it
// and a note on how it was read (printed, not part of the JSON result).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// report accumulates a run's metrics in declaration order.
type report struct {
	metrics []metric
	index   map[string]int
}

func newReport() *report { return &report{index: map[string]int{}} }

func (r *report) set(name string, value float64, unit string, n int, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m := metric{Name: name, Value: value, Unit: unit, N: n, Note: note}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// timing reports a distribution as <prefix>_p50_<unit> and
// <prefix>_p99_<unit>, noting the percentile the tail was actually read at.
func (r *report) timing(prefix string, samples []float64, unit string) {
	s := summarize(samples)
	r.set(prefix+"_p50_"+unit, s.Median, unit, s.N, "median")
	r.set(prefix+"_p99_"+unit, s.Tail, unit, s.N, fmt.Sprintf("median of %d blocks' p%g (highest with >=%d beyond): %.3g", len(s.BlockTails), 100*s.TailPct, minBeyond, s.BlockTails))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
