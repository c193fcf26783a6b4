package ident

import (
	"fmt"
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

func TestAppendNames(t *testing.T) {
	tab := New()
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := fmt.Sprintf("n-%d", i)
		tab.Intern(n)
		want[n] = true
	}
	buf := make([]string, 0, 100)
	buf = tab.AppendNames(buf[:0])
	if len(buf) != len(want) {
		t.Fatalf("AppendNames returned %d names, want %d", len(buf), len(want))
	}
	for _, n := range buf {
		if !want[n] {
			t.Fatalf("unexpected name %q", n)
		}
	}
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

// Cap returns an exclusive upper bound on every ID the table has ever
// issued — the size an ID-indexed slice needs to cover them all.
func (t *Table) Cap() int {
	return len(t.names) + 1
}
