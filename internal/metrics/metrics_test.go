package metrics

import (
	"strings"
	"testing"
)

func TestRecorderSummary(t *testing.T) {
	r := NewRecorder()
	r.Record(Cost{Reallocations: 1, Migrations: 0})
	r.Record(Cost{Reallocations: 3, Migrations: 1})
	r.Record(Cost{Reallocations: 2, Migrations: 0})
	r.Record(Cost{Reallocations: 0, Migrations: 0})

	s := r.Summary()
	if s.Requests != 4 {
		t.Errorf("Requests = %d", s.Requests)
	}
	if s.TotalReallocations != 6 || s.TotalMigrations != 1 {
		t.Errorf("totals = %d/%d", s.TotalReallocations, s.TotalMigrations)
	}
	if s.MaxReallocations != 3 || s.MaxMigrations != 1 {
		t.Errorf("maxima = %d/%d", s.MaxReallocations, s.MaxMigrations)
	}
	if s.MeanReallocations != 1.5 {
		t.Errorf("mean = %f", s.MeanReallocations)
	}
	if s.P50Reallocations != 1 { // sorted [0 1 2 3], rank ceil(0.5*4)=2 -> 1
		t.Errorf("p50 = %d", s.P50Reallocations)
	}
	if s.P99Reallocations != 3 {
		t.Errorf("p99 = %d", s.P99Reallocations)
	}
	if !strings.Contains(s.String(), "reqs=4") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewRecorder().Summary()
	if s.Requests != 0 || s.TotalReallocations != 0 || s.MaxReallocations != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{Reallocations: 1, Migrations: 2}
	c.Add(Cost{Reallocations: 3, Migrations: 4})
	if c.Reallocations != 4 || c.Migrations != 6 {
		t.Errorf("Add result %+v", c)
	}
}

func TestPercentileEdge(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile nonzero")
	}
	if percentile([]int{42}, 0.0) != 42 {
		t.Error("rank clamp low broken")
	}
	if percentile([]int{1, 2}, 1.0) != 2 {
		t.Error("rank clamp high broken")
	}
}
