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
// realloc.New stack runs on its caller, a shard's stack on that shard's
// worker (snapshots included), and the shard router's own table only
// under the router's mutex. Concurrent readers are safe (the read
// methods do not mutate), but a mutating call (Intern, Release, Reset)
// must not overlap any other call; a caller that shares a table must
// serialize it itself.
package ident

// ID is a dense interned name identifier. The zero ID is None: it is
// never issued, so ID-valued fields and map entries can use 0 for
// "no job", mirroring the empty string in a string-keyed design.
type ID uint32

// None is the zero ID, held by no name.
const None ID = 0

// Table is a two-way name⇄ID registry with free-list ID reuse. The ID
// of a name is its slot plus one.
type Table struct {
	byName map[string]uint32 // name -> slot
	names  []string          // slot -> name; "" marks a free slot
	free   []uint32          // recycled slots
}

// New returns an empty table.
func New() *Table { return &Table{byName: make(map[string]uint32)} }

// Intern returns the ID bound to name, issuing one (free list first)
// when the name is new.
//
//reallocvet:hotpath
func (t *Table) Intern(name string) ID {
	if slot, ok := t.byName[name]; ok {
		return ID(slot + 1)
	}
	var slot uint32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.names[slot] = name
	} else {
		slot = uint32(len(t.names))
		t.names = append(t.names, name) //reallocvet:allow hotpath (amortized growth: steady state reuses free-list slots)
	}
	t.byName[name] = slot
	return ID(slot + 1)
}

// Get returns the ID bound to name without interning.
//
//reallocvet:hotpath
func (t *Table) Get(name string) (ID, bool) {
	slot, ok := t.byName[name]
	if !ok {
		return None, false
	}
	return ID(slot + 1), true
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
	delete(t.byName, t.names[slot])
	t.names[slot] = ""            // drop the string reference
	t.free = append(t.free, slot) //reallocvet:allow hotpath (amortized growth: the free list reaches its high-water mark and stops growing)
}

// Len returns the number of bound names.
func (t *Table) Len() int {
	return len(t.byName)
}

// Range calls fn for every bound (ID, name) until fn returns false. fn
// must not call mutating table methods; the order is unspecified.
func (t *Table) Range(fn func(id ID, name string) bool) {
	for slot, name := range t.names {
		if name != "" && !fn(ID(slot+1), name) {
			return
		}
	}
}

// AppendNames appends every bound name to buf and returns it — the
// allocation-friendly way to snapshot the name set (callers typically
// sort it for deterministic iteration).
func (t *Table) AppendNames(buf []string) []string {
	for _, name := range t.names {
		if name != "" {
			buf = append(buf, name)
		}
	}
	return buf
}

// Reset drops every binding but keeps the table's capacity, returning
// it to its initial state (IDs are reissued from the bottom). For
// recycling a scheduler's ID space; callers must hold no live IDs.
func (t *Table) Reset() {
	clear(t.byName)
	clear(t.names) // zero the string refs
	t.names = t.names[:0]
	t.free = t.free[:0]
}
