package main

import (
	"math"
	"math/rand"
	"time"

	"jitsu/internal/sim"
)

// The generator makes everything the program is given: service pages
// and the arrival schedule. It draws from its own seeded source, never
// from the engine's, so the inputs are fixed before the run starts.

// newRand is the generator's source for one workload seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// page makes a printable body of n bytes whose content depends on the
// source, so every service serves a different page.
func page(r *rand.Rand, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 <>/"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return b
}

// poisson returns n arrival instants of a Poisson process at rate per
// virtual second, starting after start.
func poisson(r *rand.Rand, n int, rate float64, start sim.Duration) []sim.Duration {
	out := make([]sim.Duration, n)
	t := float64(start)
	for i := range out {
		t += r.ExpFloat64() / rate * float64(time.Second)
		out[i] = sim.Duration(t)
	}
	return out
}

// zipfPicker draws service indices with Zipf(s) popularity over n
// services; which service holds which popularity rank is itself a
// seeded permutation.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipf(r *rand.Rand, s float64, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(r, s, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (p *zipfPicker) pick() int { return p.perm[p.z.Uint64()] }

// logUniformSizes returns n page sizes spread evenly on a log scale
// over [lo, hi]: size i sits at the middle of the i-th of n equal
// log-width strata. The ladder is the same for every seed, so the bytes
// a balanced schedule moves do not depend on the seed; the seed decides
// which service serves which size.
func logUniformSizes(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		out[i] = int(float64(lo) * math.Exp(u*span))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// balanced returns n service indices over k services in seeded random
// order, each service appearing n/k times (the first n%k services once
// more): uniform popularity without sampling noise in the mix.
func balanced(r *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
