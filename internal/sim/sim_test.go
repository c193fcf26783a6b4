package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/align"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_quick.golden")

// quickGolden is every quick-mode table exactly as `reallocsim -quick`
// prints it. Any change that moves a paper number shows up as a diff of
// this file.
var quickGolden = filepath.Join("..", "..", "testdata", "sim_quick.golden")

// TestQuickTablesGolden pins all seventeen quick tables byte for byte.
// Regenerate with -update only for a change meant to move a number, and
// say which claims moved and why.
func TestQuickTablesGolden(t *testing.T) {
	tables, err := RunAll(true)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, tab := range tables {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(quickGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	// A table of an experiment that is no longer registered is a deleted
	// experiment's leftover: it goes with the experiment.
	for _, m := range regexp.MustCompile(`(?m)^(E\d+) — `).FindAllSubmatch(want, -1) {
		if _, ok := ByID(string(m[1])); !ok {
			t.Errorf("%s holds a table for unregistered experiment %s", quickGolden, m[1])
		}
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("quick tables differ from %s at line %d:\n got: %q\nwant: %q", quickGolden, i+1, g, w)
			}
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("%d experiments registered, want 17", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s incomplete: %+v", e.ID, e)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E3"); !ok {
		t.Error("E3 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 found")
	}
}

// Every experiment must run to completion in quick mode and produce a
// non-empty table.
func TestRunAllQuick(t *testing.T) {
	tables, err := RunAll(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 17 {
		t.Fatalf("%d tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
		if len(tab.Header) == 0 {
			t.Errorf("%s has no header", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s row width %d != header width %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}
}

// Spot-check experiment shapes in quick mode.

func TestE3ShowsBrittlenessGap(t *testing.T) {
	e, _ := ByID("E3")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio column (last) must exceed 2 at the larger n.
	last := tab.Rows[len(tab.Rows)-1]
	ratio, err := strconv.ParseFloat(last[len(last)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 2 {
		t.Errorf("EDF/reservation cost ratio %.2f too small", ratio)
	}
}

func TestE7MigrationBound(t *testing.T) {
	e, _ := ByID("E7")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		maxMigr, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if maxMigr > 1 {
			t.Errorf("m=%s: max migrations per request %d > 1", row[0], maxMigr)
		}
	}
}

func TestE9GammaSweepShape(t *testing.T) {
	e, _ := ByID("E9")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	// At gamma = 8 and 16 every run must complete.
	for _, row := range tab.Rows {
		if row[0] == "8" || row[0] == "16" {
			if row[1] != row[2] {
				t.Errorf("gamma=%s: %s/%s runs completed", row[0], row[2], row[1])
			}
		}
	}
}

// TestE1FlatShape pins Theorem 1's headline on the quick table: the
// reservation scheduler's per-request cost stays flat as n grows, so
// the largest n's max cost is no worse than the smallest n's and its
// mean cost at most 1.25x the smallest n's.
func TestE1FlatShape(t *testing.T) {
	e, _ := ByID("E1")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("%d rows, want at least two sizes", len(tab.Rows))
	}
	cost := func(row []string) (int, float64) {
		maxC, err1 := strconv.Atoi(row[2])
		meanC, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		return maxC, meanC
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	max0, mean0 := cost(first)
	max1, mean1 := cost(last)
	if max1 > max0 {
		t.Errorf("max cost grew from %d at n=%s to %d at n=%s", max0, first[0], max1, last[0])
	}
	if mean1 > 1.25*mean0 {
		t.Errorf("mean cost grew from %.2f at n=%s to %.2f at n=%s (> 1.25x)", mean0, first[0], mean1, last[0])
	}
}

// TestE10AmortizedShape pins Section 4's amortized claim and its price:
// the cost per request stays flat while the single request that
// carries a rebuild pays for a constant share of the peak population.
func TestE10AmortizedShape(t *testing.T) {
	e, _ := ByID("E10")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		peak, err1 := strconv.Atoi(row[0])
		perReq, err2 := strconv.ParseFloat(row[4], 64)
		maxOne, err3 := strconv.Atoi(row[5])
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		if perReq > 1.5 {
			t.Errorf("peak %d: amortized/request %.2f > 1.5", peak, perReq)
		}
		if maxOne < peak/4 {
			t.Errorf("peak %d: max single request %d < peak/4; the rebuild spike is gone", peak, maxOne)
		}
	}
}

// quickTable runs experiment id in quick mode and parses every cell of
// the named columns as an integer (true and false read as 1 and 0), one
// []int per row (in column order).
func quickTable(t *testing.T, id string, cols ...int) [][]int {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	out := make([][]int, len(tab.Rows))
	for i, row := range tab.Rows {
		for _, c := range cols {
			v, err := strconv.Atoi(row[c])
			switch row[c] {
			case "false":
				v, err = 0, nil
			case "true":
				v, err = 1, nil
			}
			if err != nil {
				t.Fatalf("%s: unparsable cell %d of row %v", id, c, row)
			}
			out[i] = append(out[i], v)
		}
	}
	return out
}

// TestE4MigrationLowerBoundShape pins Lemma 11 against Theorem 1 on the
// quick table: over s adversarial requests the measured migrations sit
// between the lower bound s/12 and one per request.
func TestE4MigrationLowerBoundShape(t *testing.T) {
	for _, row := range quickTable(t, "E4", 0, 1, 2) {
		m, s, migr := row[0], row[1], row[2]
		if 12*migr < s || migr > s {
			t.Errorf("m=%d: %d migrations over s=%d requests, want s/12 <= migrations <= s", m, migr, s)
		}
	}
}

// TestE8HistoryIndependentShape pins Observation 7 on the quick table:
// every trial, whatever the insert/delete history that reached its
// active set, produces a byte-identical reservation state.
func TestE8HistoryIndependentShape(t *testing.T) {
	e, _ := ByID("E8")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no trials")
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("trial %s: reservation state not identical (%v)", row[0], row)
		}
	}
}

// TestE2LogDeltaShape pins Lemma 4 on the quick table: on the nested
// cascade the naive pecking order's worst probe reallocates exactly one
// job per span, log2(Δ) of them (6 at Δ = 64, 10 at Δ = 1024).
func TestE2LogDeltaShape(t *testing.T) {
	rows := quickTable(t, "E2", 0, 1, 2)
	if len(rows) != 2 {
		t.Fatalf("quick E2 has %d rows, want Δ = 64 and Δ = 1024", len(rows))
	}
	for _, row := range rows {
		delta, logDelta, maxProbe := row[0], row[1], row[2]
		if want := bits.Len(uint(delta)) - 1; logDelta != want {
			t.Errorf("Δ=%d: log2 column %d, want %d", delta, logDelta, want)
		}
		if maxProbe != logDelta {
			t.Errorf("Δ=%d: max probe cost %d, want log2(Δ) = %d", delta, maxProbe, logDelta)
		}
	}
}

// TestE12SizeBoundsMeetShape pins Section 7's open question as answered
// for power-of-two sizes on the quick table: the greedy block
// scheduler's worst slide costs at most k+1 (its O(k)) and the
// adversary's cheapest sweep still costs at least k (Observation 13's
// Ω(k)).
func TestE12SizeBoundsMeetShape(t *testing.T) {
	for _, row := range quickTable(t, "E12", 0, 2, 4) {
		k, slide, sweep := row[0], row[1], row[2]
		if slide > k+1 {
			t.Errorf("k=%d: max slide cost %d > k+1", k, slide)
		}
		if sweep < k {
			t.Errorf("k=%d: min sweep cost %d < k", k, sweep)
		}
	}
}

// TestE11ComposedShape pins Lemmas 10, 3 and 9 composed on the quick
// table: the full stack serves unaligned windows feasibly and migrates
// at most one job per request.
func TestE11ComposedShape(t *testing.T) {
	for _, row := range quickTable(t, "E11", 0, 4, 5) {
		m, migr, feas := row[0], row[1], row[2]
		if feas != 1 {
			t.Errorf("m=%d: schedule not feasible", m)
		}
		if migr > 1 {
			t.Errorf("m=%d: %d migrations in one request, want <= 1", m, migr)
		}
	}
}

// TestE13PerLevelShape pins Lemma 9's proof on the quick table: one MOVE
// per level, each causing at most two reallocations, so no level pays
// more than two in one request.
func TestE13PerLevelShape(t *testing.T) {
	rows := quickTable(t, "E13", 0, 4)
	if len(rows) != align.NumLevels {
		t.Fatalf("%d levels, want align.NumLevels = %d", len(rows), align.NumLevels)
	}
	for _, row := range rows {
		if level, maxOne := row[0], row[1]; maxOne > 2 {
			t.Errorf("level %d: %d reallocations in one request, want <= 2", level, maxOne)
		}
	}
}

// TestE14Lemma8Shape pins Lemma 8 on the quick table: at gamma = 8 no
// operation fails, the invariant never breaks, and every window keeps
// at least x+1 fulfilled reservations on random and exact-fit runs.
func TestE14Lemma8Shape(t *testing.T) {
	seen := false
	for _, row := range quickTable(t, "E14", 0, 2, 3, 4, 5) {
		if row[0] != 8 {
			continue
		}
		seen = true
		if fails, viol := row[1], row[2]; fails != 0 || viol != 0 {
			t.Errorf("gamma=8: %d op failures, %d invariant violations, want 0 and 0", fails, viol)
		}
		if random, exact := row[3], row[4]; random < 1 || exact < 1 {
			t.Errorf("gamma=8: min slack %d (random), %d (exact-fit), want both >= 1", random, exact)
		}
	}
	if !seen {
		t.Fatal("no gamma=8 row")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Claim: "c", Header: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("xyz", "w")
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T — demo", "claim: c", "a    bb", "1    2.50", "xyz  w", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"x", "y"}}
	tab.AddRow(1, "a,b")
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,\"a,b\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// TestE16ShardedParity pins the sharded front-end against the
// sequential stack on the quick table's mixed workload: every
// configuration fails nothing, serves exactly what the sequential row
// serves, and pays at most twice its reallocations.
func TestE16ShardedParity(t *testing.T) {
	rows := quickTable(t, "E16", 1, 2, 3)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want sequential + sharded-{1,4,8}", len(rows))
	}
	seq := rows[0]
	for i, row := range rows {
		served, failed, realloc := row[0], row[1], row[2]
		if failed != 0 {
			t.Errorf("row %d: %d failed requests, want 0", i, failed)
		}
		if served != seq[0] {
			t.Errorf("row %d: served %d, the sequential stack served %d", i, served, seq[0])
		}
		if realloc > 2*seq[2] {
			t.Errorf("row %d: %d reallocations, more than twice the sequential %d", i, realloc, seq[2])
		}
	}
}

func TestE17ElasticResizing(t *testing.T) {
	e, _ := ByID("E17")
	tab, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d phases, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if fmt.Sprint(row[len(row)-1]) != "true" {
			t.Errorf("migration bound violated: %v", row)
		}
		if fmt.Sprint(row[3]) != "0" {
			t.Errorf("failed requests in phase: %v", row)
		}
	}
}
