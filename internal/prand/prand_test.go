package prand

import (
	"math/rand"
	"testing"
)

// edgeSeeds cover the normalisation branches of math/rand's seeding: 0
// and the multiples of 2³¹−1 (both map to 89482311), 89482311 itself,
// negatives, and the extremes of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, zeroSeed, -zeroSeed,
	m31, -m31, 2 * m31, -3 * m31, m31 - 1, m31 + 1, -(m31 - 1), -(m31 + 1),
	1<<31 - 2, 1 << 31, 1<<32 + 7, -1 << 40,
	1<<63 - 1, -1 << 63, -1<<63 + 1,
}

// testSeeds is edgeSeeds plus a fixed pseudo-random spread.
func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	rng := rand.New(rand.NewSource(20261017))
	for range 40 {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	return seeds
}

// drawCounts cross the closed-form window, the switch to the real
// source at draw 273 and the state's wrap at draw 607.
var drawCounts = []int{0, 1, 2, 272, 273, 274, 334, 606, 607, 608, 700}

// TestUint64MatchesMathRand compares the raw streams draw for draw.
func TestUint64MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for k := range 700 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// TestRandMethodsMatchMathRand drives both sources through a rand.Rand:
// every derived method consumes the same stream, so after n draws of
// one method the next values of every other method agree too.
func TestRandMethodsMatchMathRand(t *testing.T) {
	methods := []struct {
		name string
		draw func(r *rand.Rand) any
	}{
		{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
		{"Int63", func(r *rand.Rand) any { return r.Int63() }},
		{"Float64", func(r *rand.Rand) any { return r.Float64() }},
		{"Intn", func(r *rand.Rand) any { return r.Intn(1_000_003) }},
		{"Intn64", func(r *rand.Rand) any { return r.Intn(1<<40 + 5) }},
	}
	for _, seed := range testSeeds() {
		for _, n := range drawCounts {
			for _, m := range methods {
				got := rand.New(NewSource(seed))
				want := rand.New(rand.NewSource(seed))
				for k := range n {
					if g, w := m.draw(got), m.draw(want); g != w {
						t.Fatalf("seed %d %s #%d = %v, want %v", seed, m.name, k, g, w)
					}
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d after %d %s: Float64 = %v, want %v", seed, n, m.name, g, w)
				}
			}
			got := rand.New(NewSource(seed)).Perm(n)
			want := rand.New(rand.NewSource(seed)).Perm(n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d Perm(%d)[%d] = %d, want %d", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSeedResets: reseeding a used Source restarts its stream, also
// after it has switched to the real source.
func TestSeedResets(t *testing.T) {
	s := NewSource(5)
	for range 300 {
		s.Uint64()
	}
	s.Seed(-9)
	want := rand.NewSource(-9)
	for k := range 300 {
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d after Seed: %d, want %d", k, g, w)
		}
	}
}

func TestFloat64MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		if g, w := Float64(seed), rand.New(rand.NewSource(seed)).Float64(); g != w {
			t.Fatalf("Float64(%d) = %v, want %v", seed, g, w)
		}
	}
}

func TestFloat64DoesNotAllocate(t *testing.T) {
	seed := int64(1)
	if a := testing.AllocsPerRun(1000, func() {
		_ = Float64(seed)
		seed += 7919
	}); a != 0 {
		t.Fatalf("Float64 allocates %v times per call, want 0", a)
	}
}

// FuzzSourceMatchesMathRand: for any seed and draw count, the Source's
// stream equals rand.NewSource's, and Float64 equals the first Float64
// of a rand.Rand over it.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(zeroSeed), uint16(273))
	f.Add(int64(-m31), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws % 2048)
		got := NewSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := range n {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, k, g, w)
			}
		}
		if g, w := Float64(seed), rand.New(rand.NewSource(seed)).Float64(); g != w {
			t.Fatalf("Float64(%d) = %v, want %v", seed, g, w)
		}
	})
}

var sink float64

func BenchmarkFloat64(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		sink += Float64(int64(i))
	}
}

func BenchmarkMathRandFloat64(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		sink += rand.New(rand.NewSource(int64(i))).Float64()
	}
}
