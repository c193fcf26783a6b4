// Package ident interns job names into dense uint32 IDs so the hot
// paths of the scheduler stack can run on integer keys — slice indexing
// and integer map hashing — instead of hashing and comparing strings at
// every layer.
//
// Each scheduler owns its own Table (a per-scheduler ID space): names
// are interned once where a request enters the scheduler and released
// when the job leaves, so a table only ever holds the active names.
// Released IDs go on a free list and are reissued to later names, which
// keeps the space dense — an ID-indexed slice never grows past the
// scheduler's high-water job count.
//
// A table has one owner and no lock. Every table belongs to exactly one
// scheduler and is touched only by the goroutine that drives it: a
// realloc.New stack runs on its caller, a shard's stack on whichever
// goroutine holds its shard's lock (snapshots included), and the shard
// router's own table only under the router's mutex. Concurrent readers
// are safe (the read methods do not mutate), but a mutating call
// (Intern, Release, Reset) must not overlap any other call; a caller
// that shares a table must serialize it itself.
package ident

import "hash/maphash"

// ID is a dense interned name identifier. The zero ID is None: it is
// never issued, so ID-valued fields and map entries can use 0 for
// "no job", mirroring the empty string in a string-keyed design.
type ID uint32

// None is the zero ID, held by no name.
const None ID = 0

// Table is a two-way name⇄ID registry with free-list ID reuse. The ID
// of a name is its slot plus one.
//
// The slot slice and its LIFO free list decide every ID; the name→slot
// direction is an open-addressed, linearly probed index beside them.
// Each bucket keeps the name's hash and its ID, so a probe compares a
// string only on a full hash match, and growth re-places the buckets
// from their stored hashes without hashing a name. The index stays at
// most a quarter full and doubles when it would pass that. Each slot
// remembers its bucket, so Release empties it by backward-shift
// deletion, with no hash and no string compare. The hash is maphash
// under a per-table seed: a client that picks job names cannot predict
// which of them share a probe run.
type Table struct {
	seed    maphash.Seed
	buckets []bucket // power-of-two length; a zero bucket is empty
	names   []string // slot -> name; "" marks a free slot
	home    []uint32 // slot -> its bucket, meaningful while bound
	free    []uint32 // recycled slots
}

// bucket is one index entry: the low 32 bits of the name's hash and its
// ID, None when the bucket is empty.
type bucket struct {
	hash uint32
	id   ID
}

// minBuckets is the index size of a new table.
const minBuckets = 16

// New returns an empty table.
func New() *Table {
	return &Table{seed: maphash.MakeSeed(), buckets: make([]bucket, minBuckets)}
}

// hash is the index's hash of name: the low 32 bits of its maphash.
func (t *Table) hash(name string) uint32 {
	return uint32(maphash.String(t.seed, name))
}

// Intern returns the ID bound to name, issuing one (free list first)
// when the name is new.
//
//reallocvet:hotpath
func (t *Table) Intern(name string) ID {
	h := t.hash(name)
	mask := uint32(len(t.buckets) - 1)
	i := h & mask
	for ; t.buckets[i].id != None; i = (i + 1) & mask {
		if b := t.buckets[i]; b.hash == h && t.names[b.id-1] == name {
			return b.id
		}
	}
	var slot uint32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.names[slot] = name
	} else {
		slot = uint32(len(t.names))
		t.names = append(t.names, name) //reallocvet:allow hotpath (amortized growth: steady state reuses free-list slots)
		t.home = append(t.home, 0)      //reallocvet:allow hotpath (amortized growth: grows with names)
	}
	b := bucket{hash: h, id: ID(slot + 1)}
	// Only a fresh slot raises the high-water mark, so the live count
	// never passes a quarter of the index without this growth.
	if 4*len(t.names) > len(t.buckets) {
		t.grow()
		t.place(b)
		return b.id
	}
	t.buckets[i] = b
	t.home[slot] = i
	return b.id
}

// grow doubles the index and re-places every entry from its stored
// hash.
func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]bucket, 2*len(old)) //reallocvet:allow hotpath (amortized growth: the index doubles at quarter load)
	for _, b := range old {
		if b.id != None {
			t.place(b)
		}
	}
}

// place puts b in the first empty bucket of its probe run.
func (t *Table) place(b bucket) {
	mask := uint32(len(t.buckets) - 1)
	i := b.hash & mask
	for t.buckets[i].id != None {
		i = (i + 1) & mask
	}
	t.buckets[i] = b
	t.home[b.id-1] = i
}

// Get returns the ID bound to name without interning.
//
//reallocvet:hotpath
func (t *Table) Get(name string) (ID, bool) {
	h := t.hash(name)
	mask := uint32(len(t.buckets) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := t.buckets[i]
		if b.id == None {
			return None, false
		}
		if b.hash == h && t.names[b.id-1] == name {
			return b.id, true
		}
	}
}

// Name returns the name bound to id, or "" when id is None or unbound.
//
//reallocvet:hotpath
func (t *Table) Name(id ID) string {
	if id == None || int(id) > len(t.names) {
		return ""
	}
	return t.names[id-1]
}

// Release frees the binding of id and recycles it. Releasing None or an
// unbound ID panics: the schedulers release exactly once per intern, so
// a double release is a bookkeeping bug worth crashing on.
//
//reallocvet:hotpath
func (t *Table) Release(id ID) {
	if id == None {
		panic("ident: release of None")
	}
	slot := uint32(id) - 1
	if slot >= uint32(len(t.names)) || t.names[slot] == "" {
		panic("ident: release of unbound ID")
	}
	// Backward-shift deletion: walk the probe run after the emptied
	// bucket i and pull back every entry whose home bucket does not lie
	// cyclically in (i, j], so no later probe meets a false gap.
	mask := uint32(len(t.buckets) - 1)
	i := t.home[slot]
	for j := (i + 1) & mask; t.buckets[j].id != None; j = (j + 1) & mask {
		b := t.buckets[j]
		if (j-b.hash)&mask >= (j-i)&mask {
			t.buckets[i] = b
			t.home[b.id-1] = i
			i = j
		}
	}
	t.buckets[i] = bucket{}
	t.names[slot] = ""            // drop the string reference
	t.free = append(t.free, slot) //reallocvet:allow hotpath (amortized growth: the free list reaches its high-water mark and stops growing)
}

// Len returns the number of bound names.
func (t *Table) Len() int {
	return len(t.names) - len(t.free)
}

// Range calls fn for every bound (ID, name) until fn returns false. fn
// must not call mutating table methods; the order is ascending ID.
func (t *Table) Range(fn func(id ID, name string) bool) {
	for slot, name := range t.names {
		if name != "" && !fn(ID(slot+1), name) {
			return
		}
	}
}

// Reset drops every binding but keeps the table's capacity, returning
// it to its initial state (IDs are reissued from the bottom). For
// recycling a scheduler's ID space; callers must hold no live IDs.
func (t *Table) Reset() {
	clear(t.buckets)
	clear(t.names) // zero the string refs
	t.names = t.names[:0]
	t.home = t.home[:0]
	t.free = t.free[:0]
}
