// Package pma implements a packed-memory array (sparse array) as a
// reallocation problem, the companion example the paper's introduction
// cites ("Many existing algorithms, when looked in the right way, can be
// viewed as reallocation problems, e.g., ... maintaining a sparse array
// [9, 17, 31–33]").
//
// A PMA keeps n ordered keys in an array of size O(n) with gaps, so that
// an insertion only rewrites a small neighborhood. In reallocation terms:
// the resource is array cells, a request is an insert of a key, and the
// reallocation cost is the number of keys moved to new cells.
// Classic density-threshold rebalancing achieves amortized O(log² n)
// moves per insert — the experiment harness (E15) measures exactly that
// shape, putting the paper's scheduler (O(log* n)) side by side with
// another member of its reallocation framework.
package pma

import (
	"fmt"
	"sort"

	"repro/internal/mathx"
)

// PMA is a packed-memory array of distinct int64 keys.
type PMA struct {
	cells []int64 // 0 = empty (keys must be nonzero); else the key
	used  int

	// density thresholds at the root; leaves interpolate toward
	// (minLeaf, maxLeaf).
	minRoot, maxRoot float64
	minLeaf, maxLeaf float64

	leafSize int

	// moves accumulates reallocations (keys written to a new cell) of
	// the last operation.
	moves int
}

// New returns an empty PMA with standard density thresholds.
func New() *PMA {
	p := &PMA{
		minRoot: 0.35, maxRoot: 0.75,
		minLeaf: 0.10, maxLeaf: 0.92,
	}
	p.reset(8)
	return p
}

func (p *PMA) reset(capacity int) {
	p.cells = make([]int64, capacity)
	p.leafSize = leafSizeFor(capacity)
}

// leafSizeFor picks Θ(log capacity) leaf segments, as a power of two.
func leafSizeFor(capacity int) int {
	ls := int(mathx.CeilPow2(int64(mathx.Log2Ceil(int64(capacity))) + 1))
	if ls < 4 {
		ls = 4
	}
	if ls > capacity {
		ls = capacity
	}
	return ls
}

// Len returns the number of stored keys.
func (p *PMA) Len() int { return p.used }

// Keys returns the stored keys in order.
func (p *PMA) Keys() []int64 {
	out := make([]int64, 0, p.used)
	for _, v := range p.cells {
		if v != 0 {
			out = append(out, v)
		}
	}
	return out
}

// find locates the cell of key, or the insertion region.
func (p *PMA) find(key int64) (int, bool) {
	// Binary search over non-empty cells: collect predecessor by scanning
	// leaves. For clarity (this is a measurement substrate, not a
	// performance PMA) use a simple scan within a binary-searched leaf
	// range: find the first non-empty cell with value >= key.
	lo, hi := 0, len(p.cells)
	for lo < hi {
		mid := (lo + hi) / 2
		// Find nearest non-empty at or after mid.
		k := mid
		for k < hi && p.cells[k] == 0 {
			k++
		}
		if k == hi || p.cells[k] >= key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// lo is the first position whose next non-empty value is >= key.
	for k := lo; k < len(p.cells); k++ {
		if p.cells[k] != 0 {
			if p.cells[k] == key {
				return k, true
			}
			return k, false
		}
	}
	return len(p.cells), false
}

// Insert adds a key (must be nonzero and absent); returns the number of
// keys moved (the reallocation cost).
func (p *PMA) Insert(key int64) (int, error) {
	if key == 0 {
		return 0, fmt.Errorf("pma: key 0 is reserved")
	}
	p.moves = 0
	if _, exists := p.find(key); exists {
		return 0, fmt.Errorf("pma: duplicate key %d", key)
	}
	if p.used == len(p.cells) {
		p.resize() // defensive: thresholds normally prevent 100% fill
	}
	pos, _ := p.find(key)
	landed := p.insertAt(pos, key)
	p.used++
	p.moves++ // the inserted key's own placement
	p.rebalanceAfter(landed)
	return p.moves, nil
}

// insertAt places key at or near pos, shifting toward the nearest gap if
// the exact cell is occupied. It returns the cell where key landed.
func (p *PMA) insertAt(pos int, key int64) int {
	if pos >= len(p.cells) {
		// key is greater than every stored key: append after the last
		// element, shifting left into the last gap if needed.
		last := len(p.cells) - 1
		if p.cells[last] == 0 {
			p.cells[last] = key
			return last
		}
		gap := p.gapLeft(len(p.cells))
		if gap < 0 {
			panic("pma: no gap anywhere (density invariant broken)")
		}
		for i := gap; i < last; i++ {
			p.cells[i] = p.cells[i+1]
			p.moves++
		}
		p.cells[last] = key
		return last
	}
	if p.cells[pos] == 0 {
		p.cells[pos] = key
		return pos
	}
	// Shift right toward the first gap; if none, shift left.
	if gap := p.gapRight(pos); gap >= 0 {
		for i := gap; i > pos; i-- {
			p.cells[i] = p.cells[i-1]
			p.moves++
		}
		p.cells[pos] = key
		return pos
	}
	if gap := p.gapLeft(pos); gap >= 0 {
		for i := gap; i < pos-1; i++ {
			p.cells[i] = p.cells[i+1]
			p.moves++
		}
		p.cells[pos-1] = key
		return pos - 1
	}
	panic("pma: no gap anywhere (density invariant broken)")
}

func (p *PMA) gapRight(pos int) int {
	for i := pos; i < len(p.cells); i++ {
		if p.cells[i] == 0 {
			return i
		}
	}
	return -1
}

func (p *PMA) gapLeft(pos int) int {
	for i := pos - 1; i >= 0; i-- {
		if p.cells[i] == 0 {
			return i
		}
	}
	return -1
}

// rebalanceAfter restores density invariants on the smallest enclosing
// window of pos that is within thresholds, rebuilding the whole array
// (doubling or halving) when even the root violates them.
func (p *PMA) rebalanceAfter(pos int) {
	size := p.leafSize
	start := (pos / size) * size
	depth := mathx.Log2Ceil(int64(len(p.cells) / p.leafSize))
	if depth < 1 {
		depth = 1
	}
	for level := 0; ; level++ {
		if size > len(p.cells) {
			break
		}
		count := 0
		for i := start; i < start+size && i < len(p.cells); i++ {
			if p.cells[i] != 0 {
				count++
			}
		}
		lo, hi := p.thresholds(level, depth)
		density := float64(count) / float64(size)
		if density >= lo && density <= hi {
			if level == 0 {
				return // leaf already fine
			}
			p.spread(start, size)
			return
		}
		if size == len(p.cells) {
			break // root out of bounds: resize
		}
		size *= 2
		start = (start / size) * size
	}
	p.resize()
}

// thresholds interpolates the density bounds from leaf (level 0) to root.
func (p *PMA) thresholds(level, depth int) (float64, float64) {
	if level > depth {
		level = depth
	}
	f := float64(level) / float64(depth)
	lo := p.minLeaf + (p.minRoot-p.minLeaf)*f
	hi := p.maxLeaf + (p.maxRoot-p.maxLeaf)*f
	return lo, hi
}

// spread redistributes the window's keys evenly, counting moves.
func (p *PMA) spread(start, size int) {
	keys := make([]int64, 0, size)
	old := make(map[int64]int, size)
	for i := start; i < start+size; i++ {
		if p.cells[i] != 0 {
			keys = append(keys, p.cells[i])
			old[p.cells[i]] = i
			p.cells[i] = 0
		}
	}
	for k, key := range keys {
		tgt := start + k*size/len(keys)
		p.cells[tgt] = key
		if old[key] != tgt {
			p.moves++
		}
	}
}

// resize doubles (or halves) the backing array and spreads everything.
func (p *PMA) resize() {
	keys := p.Keys()
	newCap := len(p.cells)
	for float64(len(keys)) > p.maxRoot*float64(newCap) {
		newCap *= 2
	}
	for newCap > 8 && float64(len(keys)) < p.minRoot*float64(newCap)/2 {
		newCap /= 2
	}
	oldPos := make(map[int64]int, len(keys))
	for i, v := range p.cells {
		if v != 0 {
			oldPos[v] = i
		}
	}
	p.reset(newCap)
	for k, key := range keys {
		tgt := k * newCap / (len(keys) + 1)
		p.cells[tgt] = key
		if oldPos[key] != tgt {
			p.moves++
		}
	}
}

// SelfCheck validates ordering and the stored count.
func (p *PMA) SelfCheck() error {
	keys := p.Keys()
	if len(keys) != p.used {
		return fmt.Errorf("pma: used=%d but %d keys present", p.used, len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, k int) bool { return keys[i] < keys[k] }) {
		return fmt.Errorf("pma: keys out of order: %v", keys)
	}
	if p.used > len(p.cells) {
		return fmt.Errorf("pma: used %d exceeds capacity %d", p.used, len(p.cells))
	}
	return nil
}
