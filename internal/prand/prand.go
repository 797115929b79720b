// Package prand reproduces math/rand's seeded source draw for draw
// without building its 607-word state.
//
// rand.NewSource(seed) fills vec[i] from a Lehmer generator
// (x ← 48271·x mod 2³¹−1) started at the normalised seed, three steps
// per word, XORed with a fixed mask: vec[i] is a function of
// seed·48271^(21+3i) alone. Draw k then returns vec[333−k] + vec[606−k]
// and overwrites vec[333−k]; no draw reads an overwritten word before
// draw 273. So the first 273 draws are closed forms of the seed: each
// costs six modular multiplications against a multiplier table built
// once at start-up, and nothing is allocated. At draw 273 a Source
// builds the real rand.NewSource, replays the draws already taken and
// continues from it, so long streams stay exact too.
//
// The point is per-query randomness that must stay a pure function of
// its arguments (seed, round, from, to): each query derives a seed and
// gets math/rand's values for it at about a thousandth of the cost of
// building a math/rand source.
package prand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	m31     = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA = 48271
	// zeroSeed replaces a seed that normalises to 0, as math/rand does.
	zeroSeed = 89482311
)

// mult[i] is 48271^(21+3i) mod 2³¹−1: the Lehmer multiplier that takes
// the normalised seed to the first of vec[i]'s three states.
var mult [rngLen]uint64

func init() {
	x := uint64(1)
	for range 21 {
		x = mulMod(x, lehmerA)
	}
	for i := range mult {
		mult[i] = x
		x = mulMod(mulMod(mulMod(x, lehmerA), lehmerA), lehmerA)
	}
}

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1).
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&m31 + p>>31
	if p >= m31 {
		p -= m31
	}
	return p
}

// normalise maps a seed to the Lehmer state math/rand starts from.
func normalise(seed int64) uint64 {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// word returns the initial vec[i] of the source seeded with normalised x0.
func word(x0 uint64, i int) uint64 {
	x := mulMod(x0, mult[i])
	u := x << 40
	x = mulMod(x, lehmerA)
	u ^= x << 20
	x = mulMod(x, lehmerA)
	u ^= x
	return u ^ uint64(rngCooked[i])
}

// draw returns raw draw k < rngTap of the source seeded with normalised x0.
func draw(x0 uint64, k int) uint64 {
	return word(x0, rngLen-rngTap-1-k) + word(x0, rngLen-1-k)
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for the
// same seed. The zero value is not seeded; use NewSource or Seed.
type Source struct {
	x0  uint64        // normalised seed
	k   int           // closed-form draws taken
	src rand.Source64 // the real source, built at draw rngTap
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) { *s = Source{x0: normalise(seed)} }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.src == nil {
		if s.k < rngTap {
			s.k++
			return draw(s.x0, s.k-1)
		}
		s.src = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range s.k {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Float64 returns rand.New(rand.NewSource(seed)).Float64() without
// allocating, including that method's retry when the division rounds to 1.
func Float64(seed int64) float64 {
	s := Source{x0: normalise(seed)}
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
