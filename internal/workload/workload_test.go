package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/feasible"
	"repro/internal/jobs"
)

func TestConfigDefaults(t *testing.T) {
	g, err := NewGenerator(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.Gamma != 8 || g.cfg.Horizon != 1024 || g.cfg.Machines != 1 {
		t.Errorf("defaults = %+v", g.cfg)
	}
	if g.cfg.Target != 32 { // 1024 / (4*8)
		t.Errorf("target = %d", g.cfg.Target)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Horizon: 100}); err == nil {
		t.Error("non-pow2 horizon accepted")
	}
	if _, err := NewGenerator(Config{Horizon: 64, MaxSpan: 128}); err == nil {
		t.Error("MaxSpan > Horizon accepted")
	}
	if _, err := NewGenerator(Config{Horizon: 64, MinSpan: 32, MaxSpan: 16}); err == nil {
		t.Error("MinSpan > MaxSpan accepted")
	}
	if _, err := NewGenerator(Config{Horizon: 2 * maxHorizon}); err == nil {
		t.Error("horizon beyond the budget tree's bound accepted")
	}
	if _, err := TraceReplay(TraceConfig{Horizon: 2 * maxHorizon}); err == nil {
		t.Error("trace horizon beyond the budget tree's bound accepted")
	}
}

// The central property: after every prefix of the generated sequence the
// active set is γ-underallocated (and therefore feasible).
func TestGeneratedSequencesUnderallocated(t *testing.T) {
	for _, gamma := range []int64{2, 8, 16} {
		g, err := NewGenerator(Config{Seed: 42, Gamma: gamma, Horizon: 512, Steps: 300})
		if err != nil {
			t.Fatal(err)
		}
		active := make(map[string]jobs.Job)
		for i := 0; i < g.cfg.Steps; i++ {
			r := g.Next()
			switch r.Kind {
			case jobs.Insert:
				if !r.Window.IsAligned() {
					t.Fatalf("gamma=%d step %d: window %v not aligned", gamma, i, r.Window)
				}
				if _, dup := active[r.Name]; dup {
					t.Fatalf("duplicate name %q", r.Name)
				}
				active[r.Name] = jobs.Job{Name: r.Name, Window: r.Window}
			case jobs.Delete:
				if _, ok := active[r.Name]; !ok {
					t.Fatalf("delete of inactive %q", r.Name)
				}
				delete(active, r.Name)
			}
			// Spot-check underallocation every 25 steps (it is O(n^2)-ish).
			if i%25 == 0 {
				js := make([]jobs.Job, 0, len(active))
				for _, j := range active {
					js = append(js, j)
				}
				if !feasible.Underallocated(js, 1, gamma) {
					t.Fatalf("gamma=%d step %d: active set not underallocated", gamma, i)
				}
			}
		}
		if len(active) == 0 {
			t.Errorf("gamma=%d: generator never sustained jobs", gamma)
		}
	}
}

func TestGeneratorTracksActive(t *testing.T) {
	g, err := NewGenerator(Config{Seed: 7, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < 200; i++ {
		r := g.Next()
		if r.Kind == jobs.Insert {
			count++
		} else {
			count--
		}
	}
	if len(g.Active()) != count {
		t.Errorf("generator active=%d, replayed=%d", len(g.Active()), count)
	}
}

func TestSequenceLength(t *testing.T) {
	g, err := NewGenerator(Config{Seed: 3, Steps: 57})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Sequence()); got != 57 {
		t.Errorf("sequence length %d", got)
	}
}

// Property: generation is deterministic in the seed.
func TestGeneratorDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		g1, _ := NewGenerator(Config{Seed: seed, Steps: 100})
		g2, _ := NewGenerator(Config{Seed: seed, Steps: 100})
		s1, s2 := g1.Sequence(), g2.Sequence()
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSpanBounds(t *testing.T) {
	g, err := NewGenerator(Config{Seed: 5, Horizon: 1024, MinSpan: 4, MaxSpan: 64, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Sequence() {
		if r.Kind != jobs.Insert {
			continue
		}
		if s := r.Window.Span(); s < 4 || s > 64 {
			t.Fatalf("span %d outside [4,64]", s)
		}
	}
}

func TestNestedCascade(t *testing.T) {
	reqs := NestedCascade(64, 3)
	// Fill counts: spans 64,32,16,8,4 contribute span/4; spans 2 contribute 1.
	wantFill := 16 + 8 + 4 + 2 + 1 + 1
	fill, probes, deletes := 0, 0, 0
	active := []jobs.Job{}
	for _, r := range reqs {
		switch {
		case r.Kind == jobs.Delete:
			deletes++
		case r.Window.Span() == 1:
			probes++
		default:
			fill++
			active = append(active, jobs.Job{Name: r.Name, Window: r.Window})
		}
	}
	if fill != wantFill || probes != 3 || deletes != 3 {
		t.Errorf("fill=%d probes=%d deletes=%d (want %d,3,3)", fill, probes, deletes, wantFill)
	}
	// The fill set stays 2-underallocated.
	if !feasible.Underallocated(active, 1, 2) {
		t.Error("cascade fill not 2-underallocated")
	}
}

func TestNestedCascadePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NestedCascade(3) did not panic")
		}
	}()
	NestedCascade(3, 1)
}
