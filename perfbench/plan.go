package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// newRand returns the workload's generator for one stream of inputs;
// stream separates independent draws made from the same seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta. Unlike math/rand's Zipf it accepts theta < 1. The
// benchmark draws its inputs with its own generators, not the
// repository's load generator, so a change to the program cannot
// change the benchmark's inputs.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// request is one planned HTTP request and the check its response must
// pass.
type request struct {
	kind   string // latency class: run, sweep, diff, traces
	method string
	path   string
	body   []byte
	check  func([]byte) error
}
