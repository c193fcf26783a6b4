package main

// render draws schedules as ASCII timelines: one row per machine, one
// column per timeslot, with job glyphs and window annotations — the
// debugging view used while developing the reservation scheduler.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	realloc "repro"
)

// renderOptions controls rendering.
type renderOptions struct {
	// From/To clip the rendered time range; when both are zero the range
	// is derived from the placements.
	From, To int64
	// MaxWidth caps the number of rendered columns (default 120);
	// longer ranges are clipped with an ellipsis marker.
	MaxWidth int
	// ShowWindows appends one row per job sketching its window extent.
	ShowWindows bool
}

// render writes an ASCII view of the assignment.
//
//	machine 0 |.a..b...|
//	machine 1 |c....d..|
//
// Each job is shown as the first rune of its name; collisions within a
// cell render as '#' (which SelfCheck would reject anyway).
func render(w io.Writer, js []realloc.Job, asn realloc.Assignment, machines int, opt renderOptions) error {
	if machines < 1 {
		return fmt.Errorf("render: %d machines", machines)
	}
	if opt.MaxWidth <= 0 {
		opt.MaxWidth = 120
	}
	from, to := opt.From, opt.To
	if from == 0 && to == 0 {
		first := true
		for _, p := range asn {
			if first || p.Slot < from {
				from = p.Slot
			}
			if first || p.Slot >= to {
				to = p.Slot + 1
			}
			first = false
		}
		if first { // empty assignment
			from, to = 0, 1
		}
	}
	if to <= from {
		return fmt.Errorf("render: empty range [%d, %d)", from, to)
	}
	width := to - from
	clipped := false
	if width > int64(opt.MaxWidth) {
		width = int64(opt.MaxWidth)
		to = from + width
		clipped = true
	}

	// Grid: machine x offset -> glyph.
	grid := make([][]rune, machines)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(".", int(width)))
	}
	names := make([]string, 0, len(asn))
	for name := range asn {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := asn[name]
		if p.Machine < 0 || p.Machine >= machines || p.Slot < from || p.Slot >= to {
			continue
		}
		cell := &grid[p.Machine][p.Slot-from]
		if *cell != '.' {
			*cell = '#'
		} else {
			*cell = glyph(name)
		}
	}

	if _, err := fmt.Fprintf(w, "slots [%d, %d)%s\n", from, to, map[bool]string{true: " (clipped)", false: ""}[clipped]); err != nil {
		return err
	}
	for i, row := range grid {
		if _, err := fmt.Fprintf(w, "machine %d |%s|\n", i, string(row)); err != nil {
			return err
		}
	}
	if !opt.ShowWindows {
		return nil
	}
	// Window rows, sorted by job name.
	sorted := append([]realloc.Job{}, js...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].Name < sorted[k].Name })
	for _, j := range sorted {
		row := []rune(strings.Repeat(" ", int(width)))
		for t := j.Window.Start; t < j.Window.End; t++ {
			if t < from || t >= to {
				continue
			}
			row[t-from] = '-'
		}
		if p, ok := asn[j.Name]; ok && p.Slot >= from && p.Slot < to {
			row[p.Slot-from] = glyph(j.Name)
		}
		if _, err := fmt.Fprintf(w, "%9s |%s| %v\n", clipName(j.Name, 9), string(row), j.Window); err != nil {
			return err
		}
	}
	return nil
}

// glyph picks a display rune for a job name.
func glyph(name string) rune {
	for _, r := range name {
		if r != ' ' {
			return r
		}
	}
	return '?'
}

func clipName(name string, n int) string {
	if len(name) <= n {
		return name
	}
	return name[:n-1] + "~"
}
