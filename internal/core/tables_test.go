package core

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/feasible"
	"repro/internal/ident"
	"repro/internal/jobs"
)

// tableJobs is an 8-underallocated job set over [0, 2048), longest
// windows first: level-2 windows (spans 512..2048) when level2 is set,
// level-1 windows (spans 64..256), and base jobs, named with the given
// prefix.
func tableJobs(prefix string, level2 bool) []jobs.Job {
	var out []jobs.Job
	add := func(span int64, perWindow int) {
		for start := int64(0); start < 2048; start += span {
			for i := 0; i < perWindow; i++ {
				out = append(out, job(fmt.Sprintf("%s%d@%d#%d", prefix, span, start, i), start, start+span))
			}
		}
	}
	if level2 {
		add(2048, 8)
		add(1024, 4)
		add(512, 2)
	}
	add(256, 2)
	add(64, 1)
	add(32, 1)
	return out
}

// checked fails the test unless the scheduler passes SelfCheck and its
// schedule is feasible.
func checked(t *testing.T, s *Scheduler, after string) {
	t.Helper()
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// TestSelfCheckCatchesStaleTables corrupts one cached table field at a
// time on a live scheduler and expects SelfCheck to notice each one.
func TestSelfCheckCatchesStaleTables(t *testing.T) {
	s := New()
	set := tableJobs("j", true)
	for _, j := range set {
		mustInsert(t, s, j)
	}
	// One deleted job leaves a released ID behind, for a stale slot entry.
	gone := s.activeJob(set[len(set)-1].Name).id
	mustDelete(t, s, set[len(set)-1].Name)

	var ivs [3]*interval
	var idle *windowState // a level-1 window that never held a job
	var pg *page          // a page with two level-1 intervals free of level-1 jobs
	var pair []int
	for _, p := range s.livePages() {
		var quiet []int
		for k, iv := range p.intervals() {
			ivs[iv.level] = iv
			if iv.level == 1 && !holdsLevel(s, iv, 1) {
				quiet = append(quiet, k)
			}
		}
		if pg == nil && len(quiet) >= 2 {
			pg, pair = p, quiet[:2]
		}
		for _, ws := range p.windows() {
			if ws.level == 1 && !ws.materialized {
				idle = ws
			}
		}
	}
	var leveled *jobState
	for _, j := range s.byID {
		if j != nil && j.level >= 1 {
			leveled = j
			break
		}
	}
	if ivs[1] == nil || ivs[2] == nil || leveled == nil || idle == nil || pg == nil {
		t.Fatal("job set built no level-1 or level-2 interval, idle window, or job-free interval pair")
	}
	empty := -1
	for i, id := range pg.occ {
		if id == ident.None {
			empty = i
			break
		}
	}
	if empty < 0 {
		t.Fatal("the page has no empty slot")
	}
	// ws is the leveled job's window; its free index holds job-free
	// fulfilled slots (Lemma 8), and the job's own slot is not among them.
	ws := leveled.ws
	free := ws.free[freeEmpty].min()
	if free < 0 {
		t.Fatal("the leveled job's window has no empty fulfilled slot")
	}
	own := int(leveled.slot - ws.key.start)
	swapIvs := func() { pg.ivs[pair[0]], pg.ivs[pair[1]] = pg.ivs[pair[1]], pg.ivs[pair[0]] }
	corruptions := []struct {
		name string
		flip func()
		undo func() // for state outside ivs[1], ivs[2] and ws
	}{
		{"level-1 waitMask bit", func() { ivs[1].waitMask ^= 1 << 2 }, nil},
		{"level-2 waitMask bit", func() { ivs[2].waitMask ^= 1 << 40 }, nil},
		{"level-1 fulfilled count", func() { ivs[1].ranks[0].fulfilled++ }, nil},
		{"level-2 fulfilled count", func() { ivs[2].ranks[3].fulfilled++ }, nil},
		{"level-2 fullMask bit", func() { ivs[2].fullMask ^= 1 << 1 }, nil},
		{"assigned count", func() { ivs[2].nAssigned++ }, nil},
		{"rank window", func() { ivs[2].ranks[0].ws, ivs[2].ranks[1].ws = ivs[2].ranks[1].ws, ivs[2].ranks[0].ws }, nil},
		{"cached job window", func() { leveled.ws = nil }, nil},
		{"window fulfilled count", func() { ws.nFulfilled-- }, nil},
		{"stale free bit", func() { ws.free[freeEmpty].remove(free) }, nil},
		{"free bit under an own-level job", func() { ws.free[freeEmpty].add(own) }, nil},
		{"free slot filed under the wrong kind", func() {
			ws.free[freeEmpty].remove(free)
			ws.free[freeUnder].add(free)
		}, nil},
		{"free index summary bit", func() { top := ws.free[freeEmpty].lv; top[len(top)-1][0] = 0 }, nil},
		{"misfiled interval", swapIvs, swapIvs},
		{"misfiled window", func() { idle.rank ^= 1 }, func() { idle.rank ^= 1 }},
		{"stale slot ID", func() { pg.occ[empty] = gone }, func() { pg.occ[empty] = ident.None }},
	}
	for _, c := range corruptions {
		ivSaved := [2]interval{*ivs[1], *ivs[2]}
		r1, r2 := append([]rankEntry(nil), ivs[1].ranks...), append([]rankEntry(nil), ivs[2].ranks...)
		wsSaved := *ws
		bufs := [2][]uint64{append([]uint64(nil), ws.free[0].buf...), append([]uint64(nil), ws.free[1].buf...)}
		c.flip()
		if err := s.SelfCheck(); err == nil {
			t.Errorf("SelfCheck passed with a corrupted %s", c.name)
		}
		if c.undo != nil {
			c.undo()
		}
		*ivs[1], *ivs[2] = ivSaved[0], ivSaved[1]
		copy(ivs[1].ranks, r1)
		copy(ivs[2].ranks, r2)
		*ws = wsSaved
		copy(ws.free[0].buf, bufs[0])
		copy(ws.free[1].buf, bufs[1])
		leveled.ws = ws
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("restoring the %s: %v", c.name, err)
		}
	}
}

// holdsLevel reports whether a level-l job occupies a slot of iv.
func holdsLevel(s *Scheduler, iv *interval, l int) bool {
	for _, id := range iv.occ {
		if j := s.byID[id]; j != nil && j.level == l {
			return true
		}
	}
	return false
}

// TestRecycleGenerations runs three generations through Recycle/New —
// level-2-heavy, level-1 only, level-2-heavy again — on one recycled
// scheduler, which builds each generation on its predecessors' pages,
// intervals and windows. Every request keeps the invariants, and each
// generation ends in the reservation state a never-recycled scheduler
// reaches from the same job set (Observation 7).
func TestRecycleGenerations(t *testing.T) {
	// A GC cycle empties the sync.Pool; with the collector off, the
	// recycled scheduler is certain to reach the next generation. The
	// test allocates under 20 MB.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gens := []struct {
		name   string
		level2 bool
	}{{"a", true}, {"b", false}, {"c", true}}

	// References first, before this test recycles anything, from a
	// scheduler per generation that is never handed to Recycle.
	want := make([][]ReservationState, len(gens))
	for g, gen := range gens {
		ref := New()
		for i, j := range tableJobs(gen.name, gen.level2) {
			if i%3 != 0 {
				if _, err := ref.Insert(j); err != nil {
					t.Fatal(err)
				}
			}
		}
		want[g] = ref.ReservationSnapshot()
	}

	s := New()
	for g, gen := range gens {
		js := tableJobs(gen.name, gen.level2)
		// tableJobs lists long windows first, so the generation's first
		// intervals are built at its top level on what the last one
		// recycled, and short jobs then displace long ones. Then delete
		// every third job.
		for _, j := range js {
			if _, err := s.Insert(j); err != nil {
				t.Fatalf("generation %s: insert %v: %v", gen.name, j, err)
			}
			checked(t, s, "insert "+j.Name)
		}
		for i := 0; i < len(js); i += 3 {
			if _, err := s.Delete(js[i].Name); err != nil {
				t.Fatalf("generation %s: delete %q: %v", gen.name, js[i].Name, err)
			}
			checked(t, s, "delete "+js[i].Name)
		}
		if got := s.ReservationSnapshot(); !reflect.DeepEqual(got, want[g]) {
			t.Fatalf("generation %s: recycled snapshot (%d entries) differs from a fresh scheduler's (%d entries)",
				gen.name, len(got), len(want[g]))
		}
		s.Recycle()
		s = New()
	}
}
