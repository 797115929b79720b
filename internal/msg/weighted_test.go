package msg

import (
	"slices"
	"testing"

	"homonyms/internal/hom"
)

// inboxView renders everything a receiver can observe of an inbox, in
// sorted order, plus the aggregate queries the protocols use.
func inboxView(in *Inbox, probes []Message) []int {
	out := []int{in.Len(), in.TotalCount()}
	for i := 0; i < in.Len(); i++ {
		out = append(out, int(in.SenderAt(i)), in.CountAt(i), int(in.MessageAt(i).KeyID()))
	}
	for _, m := range probes {
		out = append(out, in.Count(m))
	}
	evenID := func(m Message) bool { return m.ID%2 == 0 }
	out = append(out, in.CountCopies(nil), in.CountCopies(evenID), in.CountDistinctIdentifiers(evenID))
	for _, id := range in.DistinctIdentifiers(nil) {
		out = append(out, int(id))
	}
	for _, id := range in.DistinctIdentifiers(evenID) {
		out = append(out, -int(id))
	}
	return out
}

// TestWeightedInboxMatchesExpansion pins the counting representation's
// weighted fill against its naive meaning: an entry with multiplicity w
// is w concrete deliveries of that entry. In both reception semantics
// the weighted inbox must be indistinguishable from an SoA inbox over
// the expanded index list — same distinct set and order, same per-entry
// and total counts, same Count and CountCopies answers. Zero weights
// deliver nothing, and nil weights mean one copy each.
func TestWeightedInboxMatchesExpansion(t *testing.T) {
	it := NewInterner()
	arena, idx := buildSoAArena(it, 16, 5) // duplicate payloads per identifier
	probes := make([]Message, arena.Len())
	for i := range probes {
		probes[i] = arena.Message(int32(i))
	}
	weightings := map[string][]int32{
		"nil":   nil,
		"ones":  slices.Repeat([]int32{1}, len(idx)),
		"mixed": make([]int32, len(idx)),
		"heavy": make([]int32, len(idx)),
	}
	for j := range idx {
		weightings["mixed"][j] = int32(j % 4) // every fourth entry weighs 0
		weightings["heavy"][j] = int32(1000 + j)
	}
	for name, w := range weightings {
		var expanded []int32
		for j, si := range idx {
			copies := int32(1)
			if w != nil {
				copies = w[j]
			}
			for c := int32(0); c < copies; c++ {
				expanded = append(expanded, si)
			}
		}
		for _, numerate := range []bool{false, true} {
			weighted := NewPooledInboxWeighted(numerate, arena, idx, w)
			naive := NewPooledInboxSoA(numerate, arena, expanded)
			if got, want := inboxView(weighted, probes), inboxView(naive, probes); !slices.Equal(got, want) {
				t.Errorf("%s numerate=%v: weighted inbox %v, expansion %v", name, numerate, got, want)
			}
			for i := 0; i < weighted.Len(); i++ {
				if weighted.BodyAt(i).Key() != naive.BodyAt(i).Key() {
					t.Errorf("%s numerate=%v: body %d differs", name, numerate, i)
				}
			}
			weighted.Recycle()
			naive.Recycle()
		}
	}
}

// TestArenaAppendInterned pins the pre-interned stamp path against
// Append: same identifier, KeyID, canonical key and body per entry, and
// no allocation once the key is known.
func TestArenaAppendInterned(t *testing.T) {
	it := NewInterner()
	var viaKey, viaKid SendArena
	var kb KeyBuilder
	for s := 0; s < 6; s++ {
		id := hom.Identifier(s%3 + 1)
		body := Raw("v|" + itoa(s%2))
		a := viaKey.Append(it, id, body, body.Key())
		b := viaKid.AppendInterned(it, id, body, it.Intern(body.Key()))
		if viaKey.ID(a) != viaKid.ID(b) || viaKey.KID(a) != viaKid.KID(b) ||
			viaKey.Key(a) != viaKid.Key(b) || viaKey.Body(a) != viaKid.Body(b) {
			t.Fatalf("entry %d: Append %+v, AppendInterned %+v", s, viaKey.Message(a), viaKid.Message(b))
		}
		if viaKid.Key(b) != viaKid.Message(b).Key() {
			t.Fatalf("entry %d: arena key %q, message key %q", s, viaKid.Key(b), viaKid.Message(b).Key())
		}
	}
	kb.Reset("v").Int(1)
	if string(kb.Bytes()) != "v|1" {
		t.Fatalf("KeyBuilder.Bytes = %q", kb.Bytes())
	}
	if raceEnabled {
		return
	}
	var body Payload = Raw("v|1") // boxed once, outside the measured call
	kid := it.Intern(body.Key())
	if a := testing.AllocsPerRun(100, func() {
		viaKid.Reset()
		viaKid.AppendInterned(it, 2, body, kid)
	}); a != 0 {
		t.Fatalf("AppendInterned of a known key allocates %.0f times", a)
	}
}

// TestInternerRecycle pins the pooled interner's life cycle: a pooled
// table starts empty, Recycle forgets every key, and the next table
// from the pool restarts KeyIDs at 1.
func TestInternerRecycle(t *testing.T) {
	it := NewPooledInterner()
	if it.Len() != 0 {
		t.Fatalf("fresh pooled interner holds %d keys", it.Len())
	}
	if it.Intern("a") != 1 || it.Intern("b") != 2 || it.Intern("a") != 1 {
		t.Fatal("dense KeyIDs not assigned in first-intern order")
	}
	it.Recycle()
	if it.Len() != 0 || it.Lookup("a") != NoKey || it.Key(1) != "" {
		t.Fatalf("recycled interner still holds keys: len %d", it.Len())
	}
	next := NewPooledInterner()
	defer next.Recycle()
	if next.Len() != 0 || next.Intern("b") != 1 {
		t.Fatal("interner drawn after Recycle does not restart at KeyID 1")
	}
}

// TestPooledInboxLegacyAndGroupCounts covers the remaining small
// accessors: the legacy pooled constructor over pre-keyed messages and
// the shared group core's Len/TotalCount against its views.
func TestPooledInboxLegacyAndGroupCounts(t *testing.T) {
	raw := []Message{
		NewMessageKeyed(1, Raw("x"), "x"),
		NewMessage(2, Raw("y")),
		NewMessageKeyed(1, Raw("x"), "x"),
	}
	for _, numerate := range []bool{false, true} {
		in := NewPooledInbox(numerate, raw)
		want := 2
		if numerate {
			want = 3
		}
		if in.Len() != 2 || in.TotalCount() != want || in.Count(raw[0]) != want-1 {
			t.Fatalf("numerate=%v: len %d total %d count %d", numerate, in.Len(), in.TotalCount(), in.Count(raw[0]))
		}
		in.Recycle()
	}
	it := NewInterner()
	arena, idx := buildSoAArena(it, 10, 3)
	gi := NewPooledGroupInbox(true, arena, idx, 1)
	view := NewPooledInboxView(gi)
	own := NewPooledInboxSoA(true, arena, idx)
	if gi.Len() != own.Len() || gi.TotalCount() != own.TotalCount() || view.TotalCount() != gi.TotalCount() {
		t.Fatalf("group core len/total %d/%d, own fill %d/%d", gi.Len(), gi.TotalCount(), own.Len(), own.TotalCount())
	}
	view.Recycle()
	own.Recycle()
}
