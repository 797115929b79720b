package adversary_test

import (
	"fmt"
	"math/rand"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// The pieces' per-query draws are pinned here against naive references
// that build a math/rand source per query, which is what the production
// code did before it switched to the closed form of package prand. The
// references repeat the production seed hashes on purpose: a change to
// either the hash or the stream shows up as a mismatch.

// dropRef is the naive RandomDrops reference.
func dropRef(seed int64, prob float64, round, from, to int) bool {
	h := int64(round)*1_000_003 + int64(from)*10_007 + int64(to)
	return rand.New(rand.NewSource(seed^h)).Float64() < prob
}

var puritySeeds = []int64{0, 1, -1, 7, 89482311, 1<<31 - 1, -(1<<31 - 1), 1<<63 - 1, -1 << 63}

// TestRandomDropsMatchReference: Drop and DropBatch agree mask for mask,
// and both equal the naive reference.
func TestRandomDropsMatchReference(t *testing.T) {
	const n = 9
	from := make([]int32, n)
	for i := range from {
		from[i] = int32(i)
	}
	for _, seed := range puritySeeds {
		for _, prob := range []float64{0, 0.05, 0.3, 0.5, 0.95, 1} {
			rd := adversary.RandomDrops{Seed: seed, Prob: prob}
			for round := 1; round <= 12; round++ {
				for to := 0; to < n; to++ {
					mask := make([]bool, n)
					rd.DropBatch(round, to, from, mask)
					for f := range from {
						want := dropRef(seed, prob, round, f, to)
						if got := rd.Drop(round, f, to); got != want {
							t.Fatalf("seed %d prob %v: Drop(%d,%d,%d) = %v, want %v",
								seed, prob, round, f, to, got, want)
						}
						if mask[f] != want {
							t.Fatalf("seed %d prob %v: DropBatch(%d,%d)[%d] = %v, want %v",
								seed, prob, round, to, f, mask[f], want)
						}
					}
				}
			}
		}
	}
}

func TestRandomDropsDoNotAllocate(t *testing.T) {
	rd := adversary.RandomDrops{Seed: 42, Prob: 0.3}
	from := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	mask := make([]bool, len(from))
	round := 0
	if a := testing.AllocsPerRun(200, func() {
		round++
		rd.DropBatch(round, 3, from, mask)
		rd.Drop(round, 1, 3)
	}); a != 0 {
		t.Fatalf("RandomDrops allocates %v times per round, want 0", a)
	}
}

// sendsKey renders a behaviour's output for comparison.
func sendsKey(out []msg.TargetedSend) string {
	s := ""
	for _, ts := range out {
		s += fmt.Sprintf("%d:%s;", ts.ToSlot, ts.Body.Key())
	}
	return s
}

// purityView is an n-slot round in which every slot but the last
// broadcasts a distinguishable body, under l identifiers.
func purityView(n, l, round int) *engine.View {
	sends := make([][]msg.Send, n)
	for s := 0; s < n-1; s++ {
		sends[s] = []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("r%d-s%d", round, s)))}
	}
	p := hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}
	return engine.NewView(p, hom.RoundRobinAssignment(n, l), nil, round, sends, []int{n - 1})
}

// TestSeedFallbacksMatchReference: with Rand nil, RandomT, Noise,
// Equivocate and KeyEquivocate draw exactly the math/rand stream of
// their hashed seed — the output equals the same piece run on a
// threaded math/rand source built from that seed. Noise at n=40 draws
// 320 values per call, past the closed form's 273-draw window.
func TestSeedFallbacksMatchReference(t *testing.T) {
	mr := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, seed := range puritySeeds {
		for _, n := range []int{4, 11, 40, 300} {
			p := hom.Params{N: n, L: 3, T: n / 3}
			a := hom.RoundRobinAssignment(n, 3)
			got := adversary.RandomT{Seed: seed}.Select(p, a, nil)
			want := adversary.RandomT{Rand: mr(seed)}.Select(p, a, nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d n %d: RandomT = %v, want %v", seed, n, got, want)
			}
			if n > 40 {
				continue
			}
			for round := 1; round <= 4; round++ {
				slot := n - 1
				v := purityView(n, 3, round)
				cases := []struct {
					name      string
					got, want []msg.TargetedSend
				}{
					{"Noise",
						adversary.Noise{Seed: seed}.Sends(round, slot, v),
						adversary.Noise{Rand: mr(seed ^ int64(round)<<20 ^ int64(slot))}.Sends(round, slot, v)},
					{"Equivocate",
						adversary.Equivocate{Seed: seed}.Sends(round, slot, v),
						adversary.Equivocate{Rand: mr(seed ^ int64(round)<<18 ^ int64(slot))}.Sends(round, slot, v)},
					{"KeyEquivocate",
						adversary.KeyEquivocate{Seed: seed}.Sends(round, slot, v),
						adversary.KeyEquivocate{Rand: mr(seed ^ int64(round)<<18 ^ int64(slot))}.Sends(round, slot, v)},
				}
				for _, c := range cases {
					if g, w := sendsKey(c.got), sendsKey(c.want); g != w || g == "" {
						t.Fatalf("seed %d n %d round %d: %s = %q, want %q", seed, n, round, c.name, g, w)
					}
				}
			}
		}
	}
}

// TestNewRandMatchesMathRand: the per-scenario stream is math/rand's.
func TestNewRandMatchesMathRand(t *testing.T) {
	for _, seed := range puritySeeds {
		got, want := adversary.NewRand(seed), rand.New(rand.NewSource(seed))
		for k := range 700 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, k, g, w)
			}
		}
	}
}

func BenchmarkRandomDropsDropBatch(b *testing.B) {
	const n = 16
	rd := adversary.RandomDrops{Seed: 42, Prob: 0.3}
	from := make([]int32, n)
	for i := range from {
		from[i] = int32(i)
	}
	mask := make([]bool, n)
	b.ReportAllocs()
	for i := range b.N {
		clear(mask)
		rd.DropBatch(1+i/n, i%n, from, mask)
	}
}
