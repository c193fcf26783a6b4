package core

import (
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/mathx"
)

// FuzzRequestStream drives the reservation scheduler with a byte-decoded
// request stream. The fuzzer explores window geometries and churn
// orders the random generators never produce; every reachable state must
// keep all invariants (failures on infeasible input are fine — corruption
// is not). Run with: go test -fuzz=FuzzRequestStream ./internal/core
func FuzzRequestStream(f *testing.F) {
	seeds := [][]byte{
		{0x00, 0x11, 0x22, 0x80, 0x33},
		{0x01, 0x02, 0x03, 0x04, 0x81, 0x82, 0x05},
		{0xff, 0xfe, 0xfd, 0x10, 0x90, 0x20, 0xa0},
		// Span-512 and span-1024 (level-2) jobs over span-64 and base jobs.
		{0x03, 0x00, 0x03, 0x05, 0x06, 0x00, 0x06, 0x20, 0x09, 0x00,
			0x0a, 0x00, 0x09, 0x80, 0x0a, 0x40, 0x81, 0x01, 0x03, 0x02, 0x0a, 0x10},
	}
	for _, seed := range seeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		var live []string
		id := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op&0x80 != 0 && len(live) > 0 {
				// Delete: pick a live job by index.
				idx := int(arg) % len(live)
				name := live[idx]
				if _, err := s.Delete(name); err != nil {
					t.Fatalf("delete of live job %q failed: %v", name, err)
				}
				live = append(live[:idx], live[idx+1:]...)
			} else {
				// Insert: decode span exponent (0..10 -> spans 1..1024, so
				// level-2 intervals are built) and a start bucket.
				spanExp := uint(op&0x0f) % 11
				span := int64(1) << spanExp
				start := mathx.AlignDown(int64(arg)*4, span)
				name := "f" + string(rune('a'+id%26)) + string(rune('a'+(id/26)%26)) + string(rune('a'+(id/676)%26))
				id++
				_, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: start, End: start + span}})
				if err != nil {
					// Infeasible or poisoned: acceptable terminal state —
					// but the scheduler must refuse consistently from now on.
					if _, err2 := s.Insert(jobs.Job{Name: "post", Window: jobs.Window{Start: 0, End: 2}}); err2 == nil {
						t.Fatal("scheduler accepted insert after poisoning")
					}
					return
				}
				live = append(live, name)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("invariant violation: %v", err)
			}
		}
		if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
			t.Fatalf("final schedule infeasible: %v", err)
		}
	})
}
