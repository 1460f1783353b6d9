package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minTail is the number of ops that must lie beyond a reported tail
// percentile; with fewer, the percentile rests on too few samples to repeat.
const minTail = 10

// median returns the median of vals (the mean of the middle two for an even
// count). It does not modify vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sorted(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile of vals (0 < q < 1),
// or an error when fewer than minTail values lie beyond it.
func tailPercentile(vals []float64, q float64) (float64, error) {
	n := len(vals)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if beyond := n - k; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d ops has %d beyond it, want >= %d", q*100, n, beyond, minTail)
	}
	return sorted(vals)[k-1], nil
}

// minOpsForTail is the smallest op count whose q-quantile has minTail ops
// beyond it.
func minOpsForTail(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minTail {
			return n
		}
	}
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// samplesPerSecond is the end-to-end throughput: genome evaluations per op
// divided by the median op latency. Deriving it from the median, not from
// total samples over elapsed time, keeps a few slow ops from moving it.
func samplesPerSecond(samplesPerOp, latencyP50 float64) float64 {
	if latencyP50 <= 0 {
		return 0
	}
	return samplesPerOp / latencyP50
}

// opSeeds expands a workload seed into the fixed list of n op seeds the
// workload cycles through. The list depends only on (workload, seed, n).
func opSeeds(workload string, seed int64, n int) []int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	state := h.Sum64() ^ uint64(seed)
	out := make([]int64, n)
	for i := range out {
		// splitmix64; the top bit is cleared so seeds stay positive.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = int64((z ^ (z >> 31)) >> 1)
	}
	return out
}

// tally counts ops attempted and failed. An op fails when it returns an
// error or fails its correctness check.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
