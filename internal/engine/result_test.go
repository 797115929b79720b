package engine_test

import (
	"slices"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
)

// TestCorrectSlotsSeq pins the allocation-free correct-slot walk against
// the slice form: same slots, same order, early exit honoured, and no
// allocation per walk.
func TestCorrectSlotsSeq(t *testing.T) {
	res := &engine.Result{
		Decisions: make([]hom.Value, 10),
		Corrupted: []int{0, 3, 9},
		Faulted:   []int{3, 4, 7},
	}
	want := []int{1, 2, 5, 6, 8}
	if got := res.CorrectSlots(); !slices.Equal(got, want) {
		t.Fatalf("CorrectSlots = %v, want %v", got, want)
	}
	if got := slices.Collect(res.CorrectSlotsSeq); !slices.Equal(got, want) {
		t.Fatalf("CorrectSlotsSeq = %v, want %v", got, want)
	}
	var firstTwo []int
	for s := range res.CorrectSlotsSeq {
		if len(firstTwo) == 2 {
			break
		}
		firstTwo = append(firstTwo, s)
	}
	if !slices.Equal(firstTwo, want[:2]) {
		t.Fatalf("early break yielded %v, want %v", firstTwo, want[:2])
	}
	sum := 0
	if a := testing.AllocsPerRun(10, func() {
		for s := range res.CorrectSlotsSeq {
			sum += s
		}
	}); a != 0 {
		t.Fatalf("CorrectSlotsSeq walk allocates %.0f times", a)
	}
	empty := &engine.Result{Corrupted: []int{}, Faulted: nil}
	if got := slices.Collect(empty.CorrectSlotsSeq); len(got) != 0 {
		t.Fatalf("empty result yielded %v", got)
	}
}
