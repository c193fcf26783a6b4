package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// replayWellFormed checks the sequence has no duplicate live inserts or
// dangling deletes and returns the live count after replay.
func replayWellFormed(t *testing.T, reqs []jobs.Request) int {
	t.Helper()
	live := map[string]bool{}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		switch r.Kind {
		case jobs.Insert:
			if live[r.Name] {
				t.Fatalf("request %d duplicates live job %q", i, r.Name)
			}
			live[r.Name] = true
		case jobs.Delete:
			if !live[r.Name] {
				t.Fatalf("request %d deletes inactive %q", i, r.Name)
			}
			delete(live, r.Name)
		}
	}
	return len(live)
}

func TestScenariosDeterministic(t *testing.T) {
	cfg := ElasticConfig{Seed: 9, StepsPerPhase: 200}
	a, _ := Elastic(cfg)
	b, _ := Elastic(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different phases")
	}
}

func TestMixedScenario(t *testing.T) {
	reqs, err := Mixed(MixedConfig{Seed: 5, Machines: 8, Horizon: 1 << 13, Steps: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3000 {
		t.Fatalf("len = %d, want 3000", len(reqs))
	}
	replayWellFormed(t, reqs)
	batch, svc := 0, 0
	for _, r := range reqs {
		if r.Kind != jobs.Insert {
			continue
		}
		switch {
		case len(r.Name) > 6 && r.Name[:6] == "batch-":
			batch++
			if r.Window.Span() < (1<<13)/8 {
				t.Errorf("batch window %v narrower than Horizon/8", r.Window)
			}
		case len(r.Name) > 4 && r.Name[:4] == "svc-":
			svc++
			if r.Window.Span() > (1<<13)/64 {
				t.Errorf("service window %v wider than Horizon/64", r.Window)
			}
		default:
			t.Fatalf("unclassified job name %q", r.Name)
		}
	}
	if batch == 0 || svc == 0 {
		t.Fatalf("batch=%d svc=%d: both classes must appear", batch, svc)
	}
	if svc < batch {
		t.Errorf("batch=%d svc=%d: service requests should dominate the rate", batch, svc)
	}
}

func TestMixedValidation(t *testing.T) {
	if _, err := Mixed(MixedConfig{Horizon: 1000}); err == nil {
		t.Error("non-pow2 horizon accepted")
	}
	if _, err := Mixed(MixedConfig{Machines: 1}); err == nil {
		t.Error("single machine accepted: the class split would double-book its budget")
	}
}

func TestMixedDeterministic(t *testing.T) {
	a, _ := Mixed(MixedConfig{Seed: 7})
	b, _ := Mixed(MixedConfig{Seed: 7})
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestElasticScenarioShape(t *testing.T) {
	phases, err := Elastic(ElasticConfig{Seed: 5, BaseMachines: 4, PeakMachines: 8, StepsPerPhase: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("%d phases, want 3", len(phases))
	}
	wantM := []int{4, 8, 4}
	wantName := []string{"steady", "burst", "drain"}
	for i, p := range phases {
		if p.Machines != wantM[i] {
			t.Errorf("phase %d machines = %d, want %d", i, p.Machines, wantM[i])
		}
		if p.Name != wantName[i] {
			t.Errorf("phase %d name = %q, want %q", i, p.Name, wantName[i])
		}
		if len(p.Reqs) < 400 {
			t.Errorf("phase %d has %d requests, want >= 400", i, len(p.Reqs))
		}
	}
	// The burst class must fully drain by the end of phase 2, so the
	// scale-down to the base pool stays feasible.
	burstActive := map[string]bool{}
	for _, r := range phases[1].Reqs {
		if !strings.HasPrefix(r.Name, "burst-") && !strings.HasPrefix(r.Name, "steady-") {
			t.Fatalf("unexpected job class %q", r.Name)
		}
		if strings.HasPrefix(r.Name, "burst-") {
			if r.Kind == jobs.Insert {
				burstActive[r.Name] = true
			} else {
				delete(burstActive, r.Name)
			}
		}
	}
	if len(burstActive) != 0 {
		t.Errorf("%d burst jobs still active at the scale-down boundary", len(burstActive))
	}
	// Phases 1 and 3 are steady-only.
	for _, pi := range []int{0, 2} {
		for _, r := range phases[pi].Reqs {
			if !strings.HasPrefix(r.Name, "steady-") {
				t.Fatalf("phase %d contains non-steady job %q", pi, r.Name)
			}
		}
	}
	// Defaults validate; an inverted peak does not.
	if _, err := Elastic(ElasticConfig{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if _, err := Elastic(ElasticConfig{BaseMachines: 8, PeakMachines: 4}); err == nil {
		t.Error("peak <= base accepted")
	}
}

func TestBurstScenario(t *testing.T) {
	cfg := BurstConfig{Seed: 1, Machines: 4, Horizon: 1024, Waves: 3}
	reqs, err := Burst(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayWellFormed(t, reqs)

	// The sequence must actually be wave-shaped: long insert runs and
	// long delete runs, not fine-grained churn.
	maxInsertRun, maxDeleteRun, run := 0, 0, 0
	var prev jobs.RequestKind
	for i, r := range reqs {
		if i > 0 && r.Kind == prev {
			run++
		} else {
			run = 1
		}
		prev = r.Kind
		if r.Kind == jobs.Insert && run > maxInsertRun {
			maxInsertRun = run
		}
		if r.Kind == jobs.Delete && run > maxDeleteRun {
			maxDeleteRun = run
		}
	}
	if err := (&cfg).Fill(); err != nil {
		t.Fatal(err)
	}
	if maxInsertRun < cfg.WaveSize/2 {
		t.Errorf("longest arrival run %d; want at least half a wave (%d)", maxInsertRun, cfg.WaveSize/2)
	}
	if maxDeleteRun < cfg.WaveSize/2 {
		t.Errorf("longest departure run %d; want at least half a wave (%d)", maxDeleteRun, cfg.WaveSize/2)
	}
}

func TestBurstValidation(t *testing.T) {
	if _, err := Burst(BurstConfig{Horizon: 100}); err == nil {
		t.Error("non-pow2 horizon accepted")
	}
}

func TestBurstDeterministic(t *testing.T) {
	a, err := Burst(BurstConfig{Seed: 7, Machines: 2, Horizon: 512, Waves: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Burst(BurstConfig{Seed: 7, Machines: 2, Horizon: 512, Waves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
