package msg

import "homonyms/internal/hom"

// SendArena is the engine's per-round send buffer in structure-of-arrays
// layout: one entry per stamped send, split into parallel columns so that
// the hot inbox operations (dedup, copy counting, sorted ordering) touch
// only the two integer columns and never scan the payload column.
//
// Columns (index i describes the i-th stamped send of the round):
//
//   - ids[i]    — the sender's authenticated identifier
//   - kids[i]   — the dense KeyID of the canonical (identifier, payload)
//     key, interned at stamp time; never NoKey
//   - bodies[i] — the payload itself, only dereferenced when a receiver
//     materialises messages
//   - keys[i]   — the canonical key string, aliasing the intern table's
//     copy (no per-send allocation)
//
// Invariants: entries are appended exactly once per send, in the engine's
// deterministic send order, which is also the intern order — so KeyID
// assignment is a pure function of the execution. The arena is engine
// round scratch: Reset is called at the start of every round and the
// columns are reused, so the steady-state stamping path allocates nothing.
// Inboxes built over the arena (NewPooledInboxSoA) reference entries by
// int32 index and are only valid while the round's entries are live, i.e.
// until the next Reset.
type SendArena struct {
	ids    []hom.Identifier
	kids   []KeyID
	bodies []Payload
	keys   []string
}

// Reset truncates the arena for a new round, keeping column capacity.
// Payload and key references from the previous round are dropped so the
// arena retains no garbage across rounds.
func (a *SendArena) Reset() {
	clear(a.bodies)
	clear(a.keys)
	a.ids = a.ids[:0]
	a.kids = a.kids[:0]
	a.bodies = a.bodies[:0]
	a.keys = a.keys[:0]
}

// Len returns the number of stamped sends.
func (a *SendArena) Len() int { return len(a.ids) }

// Append stamps one send into the arena: the canonical (id, body) key is
// built in the interner's scratch buffer and interned exactly once, so a
// key seen before costs one hash lookup and zero allocations. It returns
// the new entry's arena index.
func (a *SendArena) Append(it *Interner, id hom.Identifier, body Payload, bodyKey string) int32 {
	kid, key := it.InternMessageKey(int64(id), bodyKey)
	i := int32(len(a.ids))
	a.ids = append(a.ids, id)
	a.kids = append(a.kids, kid)
	a.bodies = append(a.bodies, body)
	a.keys = append(a.keys, key)
	return i
}

// AppendInterned is Append for a body whose key was already interned
// into it (the engine's ScratchKeyer send path: the body key is built
// in a scratch KeyBuilder and symbolized without ever materialising a
// fresh string). The canonical body string is read back from the intern
// table, so the whole stamp allocates nothing for known keys.
func (a *SendArena) AppendInterned(it *Interner, id hom.Identifier, body Payload, bodyKid KeyID) int32 {
	return a.Append(it, id, body, it.Key(bodyKid))
}

// ID returns the sender identifier of entry i.
func (a *SendArena) ID(i int32) hom.Identifier { return a.ids[i] }

// KID returns the dense KeyID of entry i.
func (a *SendArena) KID(i int32) KeyID { return a.kids[i] }

// Body returns the payload of entry i.
func (a *SendArena) Body(i int32) Payload { return a.bodies[i] }

// Key returns the canonical key of entry i (shared with the intern
// table).
func (a *SendArena) Key(i int32) string { return a.keys[i] }

// Message materialises entry i as a Message value (for traffic records
// and the inbox's sorted view).
func (a *SendArena) Message(i int32) Message {
	return Message{ID: a.ids[i], Body: a.bodies[i], key: a.keys[i], kid: a.kids[i]}
}
