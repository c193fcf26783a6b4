package ident

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestInternGetNameRoundTrip(t *testing.T) {
	tab := New()
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a == None || b == None {
		t.Fatalf("issued None: a=%d b=%d", a, b)
	}
	if a == b {
		t.Fatalf("distinct names share ID %d", a)
	}
	if got := tab.Intern("alpha"); got != a {
		t.Fatalf("re-intern of alpha: got %d, want %d", got, a)
	}
	if got, ok := tab.Get("alpha"); !ok || got != a {
		t.Fatalf("Get(alpha) = %d, %v; want %d, true", got, ok, a)
	}
	if _, ok := tab.Get("gamma"); ok {
		t.Fatal("Get of unknown name succeeded")
	}
	if got := tab.Name(a); got != "alpha" {
		t.Fatalf("Name(%d) = %q, want alpha", a, got)
	}
	if got := tab.Name(None); got != "" {
		t.Fatalf("Name(None) = %q", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

// TestIDReuseAfterDelete pins the free-list behavior: a released ID is
// reissued (densely) to a later intern, and the old binding is gone.
func TestIDReuseAfterDelete(t *testing.T) {
	tab := New()
	a := tab.Intern("a")
	b := tab.Intern("b")
	c := tab.Intern("c")
	tab.Release(b)
	if got := tab.Name(b); got != "" {
		t.Fatalf("released ID still names %q", got)
	}
	if _, ok := tab.Get("b"); ok {
		t.Fatal("released name still resolves")
	}
	d := tab.Intern("d")
	if d != b {
		t.Fatalf("freed ID not reused: got %d, want %d", d, b)
	}
	if got := tab.Name(d); got != "d" {
		t.Fatalf("Name(%d) = %q, want d", d, got)
	}
	// The space stays dense: with 3 live names, Cap covers exactly the
	// three issued IDs.
	if cap := tab.Cap(); cap != int(c)+1 {
		t.Fatalf("Cap = %d, want %d", cap, int(c)+1)
	}
	_ = a
}

func TestReleasePanics(t *testing.T) {
	tab := New()
	id := tab.Intern("x")
	tab.Release(id)
	for name, id := range map[string]ID{"double": id, "none": None, "unissued": 999} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release(%s) did not panic", name)
				}
			}()
			tab.Release(id)
		}()
	}
}

// TestManyLiveNames pushes past 65k live names to prove the ID space is
// not 16-bit anywhere, then releases and re-interns to exercise a big
// free list.
func TestManyLiveNames(t *testing.T) {
	const n = 70_000
	tab := New()
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = tab.Intern(fmt.Sprintf("job-%d", i))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	seen := make(map[ID]int, n)
	for i, id := range ids {
		if prev, dup := seen[id]; dup {
			t.Fatalf("jobs %d and %d share ID %d", prev, i, id)
		}
		seen[id] = i
	}
	for i := 0; i < n; i += 2 {
		tab.Release(ids[i])
	}
	if tab.Len() != n/2 {
		t.Fatalf("Len after releases = %d, want %d", tab.Len(), n/2)
	}
	// Reissue the released names: the freed slots are reused, so the ID
	// space does not grow at all.
	capBefore := tab.Cap()
	for i := 0; i < n; i += 2 {
		tab.Intern(fmt.Sprintf("job-%d", i))
	}
	if got := tab.Cap(); got != capBefore {
		t.Fatalf("Cap grew from %d to %d despite a full free list", capBefore, got)
	}
	for i := 1; i < n; i += 2 {
		if got := tab.Name(ids[i]); got != fmt.Sprintf("job-%d", i) {
			t.Fatalf("survivor %d renamed to %q", i, got)
		}
	}
}

// model is the table's specification: a name→ID map beside the same
// slot slice and LIFO free list, with none of the index.
type model struct {
	ids   map[string]ID
	names []string
	free  []uint32
}

func newModel() *model { return &model{ids: map[string]ID{}} }

func (m *model) intern(name string) ID {
	if id, ok := m.ids[name]; ok {
		return id
	}
	var slot uint32
	if n := len(m.free); n > 0 {
		slot, m.free = m.free[n-1], m.free[:n-1]
		m.names[slot] = name
	} else {
		slot = uint32(len(m.names))
		m.names = append(m.names, name)
	}
	m.ids[name] = ID(slot + 1)
	return ID(slot + 1)
}

func (m *model) release(id ID) {
	delete(m.ids, m.names[id-1])
	m.names[id-1] = ""
	m.free = append(m.free, uint32(id-1))
}

func (m *model) reset() {
	clear(m.ids)
	m.names, m.free = m.names[:0], m.free[:0]
}

// live returns the model's bound names in slot order.
func (m *model) live() []string {
	var out []string
	for _, name := range m.names {
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// check compares every read method of tab with the model, probing
// Get with every bound name and with each name of probe, and checks the
// index itself: each bound slot's home bucket holds its ID, and each
// entry is reachable from its hash's bucket without crossing an empty
// one.
func (m *model) check(t *testing.T, tab *Table, probe []string) {
	t.Helper()
	if tab.Len() != len(m.ids) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(m.ids))
	}
	live := m.live()
	for _, name := range append(live, probe...) {
		got, ok := tab.Get(name)
		want, wantOK := m.ids[name]
		if got != want || ok != wantOK {
			t.Fatalf("Get(%q) = %d, %v; model %d, %v", name, got, ok, want, wantOK)
		}
	}
	for id := ID(0); int(id) <= len(m.names)+1; id++ {
		want := ""
		if id != None && int(id) <= len(m.names) {
			want = m.names[id-1]
		}
		if got := tab.Name(id); got != want {
			t.Fatalf("Name(%d) = %q, model %q", id, got, want)
		}
	}
	var ranged []string
	tab.Range(func(id ID, name string) bool {
		if m.names[id-1] != name {
			t.Fatalf("Range yields (%d, %q); the model binds %d to %q", id, name, id, m.names[id-1])
		}
		ranged = append(ranged, name)
		return true
	})
	if !slices.Equal(ranged, live) {
		t.Fatalf("Range = %v, model %v", ranged, live)
	}
	mask := uint32(len(tab.buckets) - 1)
	entries := 0
	for i, b := range tab.buckets {
		if b.id == None {
			continue
		}
		entries++
		if tab.home[b.id-1] != uint32(i) {
			t.Fatalf("bucket %d holds ID %d, whose home is %d", i, b.id, tab.home[b.id-1])
		}
		for j := b.hash & mask; j != uint32(i); j = (j + 1) & mask {
			if tab.buckets[j].id == None {
				t.Fatalf("bucket %d (ID %d) unreachable: empty bucket %d on its probe run", i, b.id, j)
			}
		}
	}
	if entries != len(m.ids) {
		t.Fatalf("index holds %d entries, model %d names", entries, len(m.ids))
	}
}

// TestTableMatchesModel runs a seeded random stream of Intern, Get,
// Release and Reset over at most eight live names, checking the table
// against the model after every operation. Eight names keep the index
// at 16-32 buckets, and the names come from a pool of thousands, so
// whatever the table's hash seed, probe runs wrap past the last bucket
// again and again and a release must shift entries across the wrap.
func TestTableMatchesModel(t *testing.T) {
	const ops, maxLive = 200_000, 8
	rng := rand.New(rand.NewPCG(1, 2))
	pool := make([]string, 4096)
	for i := range pool {
		pool[i] = fmt.Sprintf("m%04d", i)
	}
	tab, m := New(), newModel()
	wrapped := 0
	for op := 0; op < ops; op++ {
		switch k := rng.IntN(100); {
		case k == 0:
			tab.Reset()
			m.reset()
		case k < 50 && len(m.ids) < maxLive:
			name := pool[rng.IntN(len(pool))]
			if got, want := tab.Intern(name), m.intern(name); got != want {
				t.Fatalf("op %d: Intern(%q) = %d, model %d", op, name, got, want)
			}
		case len(m.ids) > 0:
			live := m.live()
			id := m.ids[live[rng.IntN(len(live))]]
			if releaseWraps(tab, id) {
				wrapped++
			}
			tab.Release(id)
			m.release(id)
		}
		r := rng.IntN(len(pool) - 8)
		m.check(t, tab, pool[r:r+8])
	}
	if n := len(tab.buckets); n < 16 || n > 32 {
		t.Errorf("index grew to %d buckets; the stream is meant to keep it at 16-32", n)
	}
	if wrapped < 100 {
		t.Errorf("only %d releases walked a probe run past the last bucket", wrapped)
	}
	// Reset reissues from ID 1.
	tab.Reset()
	if id := tab.Intern("after-reset"); id != 1 {
		t.Errorf("first ID after Reset = %d, want 1", id)
	}
}

// releaseWraps reports whether releasing id walks the probe run after
// its bucket past the last bucket, back to the first.
func releaseWraps(tab *Table, id ID) bool {
	mask := uint32(len(tab.buckets) - 1)
	for j := tab.home[id-1]; tab.buckets[j].id != None; j = (j + 1) & mask {
		if j == mask && tab.buckets[0].id != None {
			return true
		}
	}
	return false
}

// TestTableGrowsAndShrinksWithModel grows the table past 64k names,
// releases every one of them in random order and interns them again,
// checking it against the model throughout (in full every 4096
// operations, since a full check is linear).
func TestTableGrowsAndShrinksWithModel(t *testing.T) {
	const n = 70_000
	rng := rand.New(rand.NewPCG(3, 4))
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("grow-%d", i)
	}
	tab, m := New(), newModel()
	step := func(op int) {
		if op%4096 == 0 {
			m.check(t, tab, pool[:64])
		}
	}
	for i, name := range pool {
		if got, want := tab.Intern(name), m.intern(name); got != want {
			t.Fatalf("Intern(%q) = %d, model %d", name, got, want)
		}
		step(i)
	}
	m.check(t, tab, pool[:64])
	for i, k := range rng.Perm(n) {
		id := m.ids[pool[k]]
		tab.Release(id)
		m.release(id)
		if _, ok := tab.Get(pool[k]); ok {
			t.Fatalf("released %q still resolves", pool[k])
		}
		step(i)
	}
	m.check(t, tab, pool[:64])
	for i, k := range rng.Perm(n) {
		if got, want := tab.Intern(pool[k]), m.intern(pool[k]); got != want {
			t.Fatalf("re-Intern(%q) = %d, model %d", pool[k], got, want)
		}
		step(i)
	}
	m.check(t, tab, pool[:64])
}

func BenchmarkInternReleaseChurn(b *testing.B) {
	tab := New()
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("bench-job-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tab.Intern(names[i%len(names)])
		tab.Release(id)
	}
}

func BenchmarkGetHit(b *testing.B) {
	tab := New()
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("bench-job-%d", i)
		tab.Intern(names[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Get(names[i%len(names)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkColdChurn measures the regime the stack's tables see: a
// table of 64k live names, far past the caches, where each op looks up
// a live name, releases it and interns a dead one, all in a shuffled
// order. The live set is a window sliding along the shuffle.
func BenchmarkColdChurn(b *testing.B) {
	const live = 1 << 16
	names := make([]string, 2*live)
	for i := range names {
		names[i] = fmt.Sprintf("cold-job-%d", i)
	}
	order := rand.New(rand.NewPCG(5, 6)).Perm(len(names))
	tab := New()
	for _, k := range order[:live] {
		tab.Intern(names[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, in := names[order[i%len(order)]], names[order[(i+live)%len(order)]]
		id, ok := tab.Get(out)
		if !ok {
			b.Fatal("miss")
		}
		tab.Release(id)
		tab.Intern(in)
	}
}

// Cap returns an exclusive upper bound on every ID the table has ever
// issued — the size an ID-indexed slice needs to cover them all.
func (t *Table) Cap() int {
	return len(t.names) + 1
}
