package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := []struct {
		v    int64
		want bool
	}{
		{-4, false}, {-1, false}, {0, false}, {1, true}, {2, true},
		{3, false}, {4, true}, {6, false}, {1 << 30, true},
		{(1 << 30) + 1, false}, {MaxSpan, true},
	}
	for _, c := range cases {
		if got := IsPow2(c.v); got != c.want {
			t.Errorf("IsPow2(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	cases := []struct{ v, want int64 }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {17, 32},
		{1 << 40, 1 << 40}, {(1 << 40) + 1, 1 << 41},
	}
	for _, c := range cases {
		if got := CeilPow2(c.v); got != c.want {
			t.Errorf("CeilPow2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestCeilPow2PanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilPow2(0) did not panic")
		}
	}()
	CeilPow2(0)
}

func TestFloorPow2(t *testing.T) {
	cases := []struct{ v, want int64 }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 4}, {17, 16},
		{(1 << 40) - 1, 1 << 39}, {1 << 40, 1 << 40},
	}
	for _, c := range cases {
		if got := FloorPow2(c.v); got != c.want {
			t.Errorf("FloorPow2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 50, 50},
	}
	for _, c := range cases {
		if got := Log2Floor(c.v); got != c.want {
			t.Errorf("Log2Floor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2Exact(t *testing.T) {
	for i := 0; i <= 62; i++ {
		if got := Log2Exact(int64(1) << uint(i)); got != i {
			t.Errorf("Log2Exact(2^%d) = %d", i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Log2Exact(3) did not panic")
		}
	}()
	Log2Exact(3)
}

func TestLogStar(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 3},
		{17, 4}, {65536, 4}, {65537, 5}, {1 << 62, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.v); got != c.want {
			t.Errorf("LogStar(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLogStarMonotone(t *testing.T) {
	prev := 0
	for v := int64(1); v < 1<<20; v = v*3/2 + 1 {
		cur := LogStar(v)
		if cur < prev {
			t.Fatalf("LogStar not monotone at %d: %d < %d", v, cur, prev)
		}
		prev = cur
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4}, {8, 2, 4, 4}, {-7, 2, -4, -3}, {-8, 2, -4, -4},
		{0, 5, 0, 0}, {1, 5, 0, 1}, {-1, 5, -1, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.fl {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := CeilDiv(c.a, c.b); got != c.ce {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestAlignUpDown(t *testing.T) {
	cases := []struct{ t64, align, down, up int64 }{
		{0, 4, 0, 0}, {1, 4, 0, 4}, {4, 4, 4, 4}, {5, 4, 4, 8},
		{-1, 4, -4, 0}, {-4, 4, -4, -4}, {-5, 4, -8, -4},
	}
	for _, c := range cases {
		if got := AlignDown(c.t64, c.align); got != c.down {
			t.Errorf("AlignDown(%d,%d) = %d, want %d", c.t64, c.align, got, c.down)
		}
		if got := AlignUp(c.t64, c.align); got != c.up {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.t64, c.align, got, c.up)
		}
	}
}

// Property: FloorDiv matches math.Floor of the real quotient.
func TestFloorDivProperty(t *testing.T) {
	f := func(a int32, b int32) bool {
		bb := int64(b)
		if bb <= 0 {
			bb = -bb + 1
		}
		got := FloorDiv(int64(a), bb)
		want := int64(math.Floor(float64(a) / float64(bb)))
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CeilPow2/FloorPow2 bracket v and are powers of two.
func TestPow2BracketProperty(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw%1_000_000) + 1
		c, fl := CeilPow2(v), FloorPow2(v)
		return IsPow2(c) && IsPow2(fl) && fl <= v && v <= c && c < 2*v && fl > v/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AlignDown(t) <= t < AlignDown(t)+align, and both results are
// multiples of align.
func TestAlignProperty(t *testing.T) {
	f := func(tRaw int32, aRaw uint8) bool {
		a := int64(aRaw%64) + 1
		tt := int64(tRaw)
		d, u := AlignDown(tt, a), AlignUp(tt, a)
		return d%a == 0 && u%a == 0 && d <= tt && tt < d+a && u >= tt && u-a < tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxAbs(t *testing.T) {
	if MaxI64(3, 5) != 5 || MaxI64(5, 3) != 5 {
		t.Error("MaxI64 broken")
	}
}
