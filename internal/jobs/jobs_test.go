package jobs

import (
	"testing"
	"testing/quick"
)

func TestWindowValidate(t *testing.T) {
	if err := (Window{3, 7}).Validate(); err != nil {
		t.Fatalf("[3,7): %v", err)
	}
	if err := (Window{7, 7}).Validate(); err == nil {
		t.Error("empty window accepted")
	}
	if err := (Window{8, 3}).Validate(); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 4, End: 8}
	for _, c := range []struct {
		t    Time
		want bool
	}{{3, false}, {4, true}, {7, true}, {8, false}} {
		if got := w.Contains(c.t); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestWindowContainsWindow(t *testing.T) {
	w := Window{0, 8}
	cases := []struct {
		o    Window
		want bool
	}{
		{Window{0, 8}, true}, {Window{2, 6}, true}, {Window{0, 9}, false},
		{Window{-1, 4}, false}, {Window{7, 8}, true},
	}
	for _, c := range cases {
		if got := w.ContainsWindow(c.o); got != c.want {
			t.Errorf("ContainsWindow(%v) = %v, want %v", c.o, got, c.want)
		}
	}
}

func TestWindowOverlaps(t *testing.T) {
	w := Window{4, 8}
	cases := []struct {
		o    Window
		want bool
	}{
		{Window{0, 4}, false}, {Window{0, 5}, true}, {Window{8, 12}, false},
		{Window{7, 12}, true}, {Window{5, 6}, true},
	}
	for _, c := range cases {
		if got := w.Overlaps(c.o); got != c.want {
			t.Errorf("Overlaps(%v) = %v, want %v", c.o, got, c.want)
		}
	}
}

func TestOverlapsSymmetricProperty(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		w1 := Window{int64(a), int64(a) + int64(b%64) + 1}
		w2 := Window{int64(c), int64(c) + int64(d%64) + 1}
		return w1.Overlaps(w2) == w2.Overlaps(w1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsAligned(t *testing.T) {
	cases := []struct {
		w    Window
		want bool
	}{
		{Window{0, 1}, true},   // span 1 at 0
		{Window{5, 6}, true},   // span 1 anywhere
		{Window{0, 2}, true},   // span 2 at 0
		{Window{2, 4}, true},   // span 2 at multiple of 2
		{Window{1, 3}, false},  // span 2 misaligned
		{Window{8, 16}, true},  // span 8 at 8
		{Window{4, 12}, false}, // span 8 misaligned
		{Window{0, 3}, false},  // span 3 not pow2
		{Window{-4, -2}, false},
	}
	for _, c := range cases {
		if got := c.w.IsAligned(); got != c.want {
			t.Errorf("IsAligned(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestJobValidate(t *testing.T) {
	if err := (Job{Name: "a", Window: Window{0, 4}}).Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	if err := (Job{Name: "", Window: Window{0, 4}}).Validate(); err == nil {
		t.Error("nameless job accepted")
	}
	if err := (Job{Name: "a", Window: Window{4, 4}}).Validate(); err == nil {
		t.Error("empty-window job accepted")
	}
}

func TestRequestBuilders(t *testing.T) {
	r := InsertReq("x", 2, 6)
	if r.Kind != Insert || r.Name != "x" || r.Window.Span() != 4 {
		t.Errorf("InsertReq built %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	d := DeleteReq("x")
	if d.Kind != Delete || d.Name != "x" {
		t.Errorf("DeleteReq built %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("valid delete rejected: %v", err)
	}
	if err := (Request{Kind: Insert, Name: "", Window: Window{0, 1}}).Validate(); err == nil {
		t.Error("nameless request accepted")
	}
	if err := (Request{Kind: RequestKind(9), Name: "z"}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRequestStrings(t *testing.T) {
	if got := InsertReq("j", 0, 4).String(); got != "insert j [0,4)" {
		t.Errorf("String() = %q", got)
	}
	if got := DeleteReq("j").String(); got != "delete j" {
		t.Errorf("String() = %q", got)
	}
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Error("kind strings broken")
	}
	if RequestKind(7).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestAssignmentCloneAndDiff(t *testing.T) {
	a := Assignment{
		"a": {Machine: 0, Slot: 1},
		"b": {Machine: 1, Slot: 2},
		"c": {Machine: 0, Slot: 5},
	}
	b := a.Clone()
	if len(b) != 3 {
		t.Fatal("clone size wrong")
	}
	b["a"] = Placement{Machine: 0, Slot: 9} // moved, same machine
	b["b"] = Placement{Machine: 2, Slot: 2} // migrated
	delete(b, "c")
	b["d"] = Placement{Machine: 3, Slot: 3} // new job, ignored

	moved, migrated := a.Diff(b)
	if moved != 2 || migrated != 1 {
		t.Errorf("Diff = (%d,%d), want (2,1)", moved, migrated)
	}
	// Mutating clone must not affect original.
	if a["a"] != (Placement{Machine: 0, Slot: 1}) {
		t.Error("clone aliases original")
	}
}

func TestDiffEmpty(t *testing.T) {
	moved, migrated := Assignment{}.Diff(Assignment{})
	if moved != 0 || migrated != 0 {
		t.Error("empty diff nonzero")
	}
}
