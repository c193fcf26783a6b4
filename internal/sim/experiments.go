package sim

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/lowerbound"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/mixed"
	"repro/internal/multi"
	"repro/internal/naive"
	"repro/internal/pma"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sized"
	"repro/internal/trim"
	"repro/internal/workload"
)

// Experiment reproduces one claim of the paper. Run(quick) executes it;
// quick mode shrinks parameters for use in tests.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(quick bool) (*Table, error)
}

// All returns every experiment in DESIGN.md's index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Reservation scheduler cost vs n",
			Claim: "Theorem 1 / Lemma 9: per-request reallocation cost O(min{log* n, log* Δ}) — flat as n grows",
			Run:   runE1},
		{ID: "E2", Title: "Naive pecking-order cost vs Δ",
			Claim: "Lemma 4: naive cascades grow like log Δ",
			Run:   runE2},
		{ID: "E3", Title: "EDF brittleness vs reservation robustness",
			Claim: "Section 4 intro: EDF moves Θ(n) jobs per urgent insert even when 16-underallocated; reservations move O(1)",
			Run:   runE3},
		{ID: "E4", Title: "Migration lower bound (adaptive adversary)",
			Claim: "Lemma 11: any scheduler pays Ω(s) migrations over s requests (>= s/12)",
			Run:   runE4},
		{ID: "E5", Title: "Quadratic reallocations without underallocation",
			Claim: "Lemma 12: fully subscribed chains force Ω(s²) total reallocations",
			Run:   runE5},
		{ID: "E6", Title: "Mixed job sizes {1, k}",
			Claim: "Observation 13: Θ(n) requests force Ω(kn) reallocations despite constant underallocation",
			Run:   runE6},
		{ID: "E7", Title: "Migrations per request on m machines",
			Claim: "Theorem 1: at most one machine migration per request",
			Run:   runE7},
		{ID: "E8", Title: "History independence of reservations",
			Claim: "Observation 7: fulfilled/waitlisted reservation state depends only on the active job multiset",
			Run:   runE8},
		{ID: "E9", Title: "Underallocation threshold sweep",
			Claim: "Lemma 8 needs 8-underallocation: below the threshold the reservation invariant can fail; above it, costs stay O(1)",
			Run:   runE9},
		{ID: "E10", Title: "Window trimming and amortized rebuilds",
			Claim: "Section 4: doubling/halving n* with full rebuilds costs amortized O(1) per request",
			Run:   runE10},
		{ID: "E11", Title: "End-to-end Theorem 1 stack",
			Claim: "Lemmas 10+3+9 compose: unaligned windows on m machines, O(log* n) reallocations, <= 1 migration",
			Run:   runE11},
		{ID: "E12", Title: "Open question 1: sizes up to k with matching bounds",
			Claim: "Section 7 asks for a scheduler for sizes <= k matching Observation 13's Ω(k); the block-aligned greedy scheduler achieves O(k) per request",
			Run:   runE12},
		{ID: "E13", Title: "Per-level cascade anatomy",
			Claim: "Lemma 9's proof structure: each request causes O(1) reallocations at each level, across O(log* Δ) levels",
			Run:   runE13},
		{ID: "E14", Title: "Hunting the Lemma 8 boundary",
			Claim: "Lemma 8: under 8-underallocation every window keeps at least x+1 fulfilled reservations; how close do tight instances get?",
			Run:   runE14},
		{ID: "E15", Title: "The framework beyond scheduling: sparse arrays",
			Claim: "Introduction: maintaining a sparse array is also a reallocation problem; a packed-memory array pays Θ(log² n) per update vs the scheduler's O(log* n)",
			Run:   runE15},
		{ID: "E16", Title: "Sharded front-end cost parity",
			Claim: "Engineering extension: partitioning the machine pool into consistent-hash shards (each its own Theorem 1 stack) keeps total reallocations and migrations within a small constant of the sequential stack on the mixed workload",
			Run:   runE16},
		{ID: "E17", Title: "Elastic pool resizing with bounded migrations",
			Claim: "Engineering extension: growing the sharded pool moves zero jobs, and every shrink migrates at most as many jobs as the shrunken shard held — the autoscaling analogue of Theorem 1's one-migration bound",
			Run:   runE17},
	}
}

// ByID looks an experiment up by its ID (case-sensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment.
func RunAll(quick bool) ([]*Table, error) {
	var out []*Table
	for _, e := range All() {
		t, err := e.Run(quick)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func newTable(e string, header ...string) *Table {
	exp, _ := ByID(e)
	return &Table{ID: exp.ID, Title: exp.Title, Claim: exp.Claim, Header: header}
}

// --- E1: reservation scheduler cost vs n -------------------------------

func runE1(quick bool) (*Table, error) {
	sizes := []int{256, 1024, 4096, 16384}
	if quick {
		sizes = []int{64, 256}
	}
	t := newTable("E1", "target n", "requests", "max cost", "mean cost", "p99", "log*(n)")
	for _, n := range sizes {
		horizon := mathx.CeilPow2(int64(64 * n))
		g, err := workload.NewGenerator(workload.Config{
			Seed: int64(n), Gamma: 8, Horizon: horizon, Target: n, Steps: 4 * n,
		})
		if err != nil {
			return nil, err
		}
		s := core.New(core.WithMaxIntervals(1 << 24))
		rec := metrics.NewRecorder()
		if _, err := sched.Run(s, g.Sequence(), rec); err != nil {
			return nil, err
		}
		sum := rec.Summary()
		t.AddRow(n, sum.Requests, sum.MaxReallocations, sum.MeanReallocations,
			sum.P99Reallocations, mathx.LogStar(int64(n)))
	}
	t.Notes = append(t.Notes,
		"max cost stays flat while n grows 64x: the O(log* n) bound (log* is effectively constant here)")
	return t, nil
}

// --- E2: naive pecking-order cost vs Δ ----------------------------------

func runE2(quick bool) (*Table, error) {
	deltas := []int64{1 << 6, 1 << 10, 1 << 14, 1 << 18}
	probes := 50
	if quick {
		deltas = []int64{1 << 6, 1 << 10}
		probes = 10
	}
	t := newTable("E2", "Δ", "log2(Δ)", "max probe cost", "mean probe cost")
	for _, d := range deltas {
		s := naive.New()
		reqs := workload.NestedCascade(d, probes)
		rec := metrics.NewRecorder()
		if _, err := sched.Run(s, reqs, rec); err != nil {
			return nil, err
		}
		// Probe costs are the insert halves of the trailing toggles.
		costs := rec.Costs()
		nFill := len(reqs) - 2*probes
		maxP, sumP := 0, 0
		for p := 0; p < probes; p++ {
			c := costs[nFill+2*p].Reallocations
			if c > maxP {
				maxP = c
			}
			sumP += c
		}
		t.AddRow(d, mathx.Log2Floor(d), maxP, float64(sumP)/float64(probes))
	}
	t.Notes = append(t.Notes,
		"probe cost grows linearly in log2(Δ): the Lemma 4 cascade reallocates one job per span")
	return t, nil
}

// --- E3: EDF brittleness vs reservation robustness ----------------------

func runE3(quick bool) (*Table, error) {
	sizes := []int{64, 256, 1024}
	probes := 16
	if quick {
		sizes = []int{32, 128}
		probes = 4
	}
	t := newTable("E3", "n", "EDF mean probe cost", "reservation mean probe cost", "ratio")
	for _, n := range sizes {
		seq := lowerbound.FrontInsertSequence(n, probes)
		edfRec, err := lowerbound.MeasureDiffCosts(edf.New(1), seq)
		if err != nil {
			return nil, err
		}
		coreRec, err := lowerbound.MeasureDiffCosts(
			alignsched.New(core.New(core.WithMaxIntervals(1<<24))), seq)
		if err != nil {
			return nil, err
		}
		e := meanProbeCost(edfRec, n, probes)
		c := meanProbeCost(coreRec, n, probes)
		t.AddRow(n, e, c, e/c)
	}
	t.Notes = append(t.Notes,
		"EDF probe cost grows linearly with n; the reservation scheduler's stays constant")
	return t, nil
}

func meanProbeCost(rec *metrics.Recorder, n, probes int) float64 {
	costs := rec.Costs()
	sum := 0
	for p := 0; p < probes; p++ {
		sum += costs[n+2*p].Reallocations
	}
	return float64(sum) / float64(probes)
}

// --- E4: Lemma 11 migration lower bound ---------------------------------

func runE4(quick bool) (*Table, error) {
	ms := []int{2, 4, 8}
	rounds := 10
	if quick {
		ms = []int{2, 4}
		rounds = 3
	}
	t := newTable("E4", "m", "requests s", "migrations", "paper bound s/12", "migrations/request")
	for _, m := range ms {
		stack := alignsched.New(multi.New(m, func() sched.Scheduler { return core.New() }))
		res, err := lowerbound.RunLemma11(stack, rounds)
		if err != nil {
			return nil, err
		}
		t.AddRow(m, res.Requests, res.TotalMigrations, res.PaperLowerBound,
			float64(res.TotalMigrations)/float64(res.Requests))
	}
	t.Notes = append(t.Notes,
		"measured migrations sit between the paper's s/12 lower bound and Theorem 1's 1-per-request upper bound")
	return t, nil
}

// --- E5: Lemma 12 quadratic reallocations --------------------------------

func runE5(quick bool) (*Table, error) {
	etas := []int{16, 64, 256}
	if quick {
		etas = []int{8, 32}
	}
	t := newTable("E5", "eta", "requests s", "total reallocations", "total/s", "s²/16 reference")
	for _, eta := range etas {
		cycles := eta / 2
		seq := lowerbound.Lemma12Sequence(eta, cycles)
		rec, err := lowerbound.MeasureDiffCosts(edf.New(1), seq)
		if err != nil {
			return nil, err
		}
		s := len(seq)
		total := rec.Summary().TotalReallocations
		t.AddRow(eta, s, total, float64(total)/float64(s), s*s/16)
	}
	t.Notes = append(t.Notes,
		"total cost grows quadratically in the sequence length: per-request cost is Θ(s), impossible to amortize")
	return t, nil
}

// --- E6: Observation 13 mixed sizes --------------------------------------

func runE6(quick bool) (*Table, error) {
	ks := []int64{4, 16, 64, 256}
	sweeps := 8
	if quick {
		ks = []int64{4, 16}
		sweeps = 3
	}
	t := newTable("E6", "k", "requests", "total cost", "min sweep cost", "paper bound k", "cost/(k·sweeps)")
	for _, k := range ks {
		res, err := mixed.RunObservation13(k, 2, sweeps)
		if err != nil {
			return nil, err
		}
		t.AddRow(k, res.Requests, res.TotalCost, res.MinSweepCost, res.PaperLowerBound,
			float64(res.TotalCost)/float64(k*int64(sweeps)))
	}
	t.Notes = append(t.Notes,
		"aggregate cost scales linearly with k at fixed request count: the Ω(kn) bound for sizes {1,k}")
	return t, nil
}

// --- E7: migrations per request on m machines ----------------------------

func runE7(quick bool) (*Table, error) {
	ms := []int{2, 4, 8, 16}
	steps := 2000
	if quick {
		ms = []int{2, 4}
		steps = 300
	}
	t := newTable("E7", "m", "requests", "max migrations/request", "total migrations", "max reallocations/request")
	for _, m := range ms {
		g, err := workload.NewGenerator(workload.Config{
			Seed: int64(m), Machines: m, Gamma: 12, Horizon: 4096, Steps: steps,
		})
		if err != nil {
			return nil, err
		}
		s := multi.New(m, func() sched.Scheduler { return core.New() })
		rec := metrics.NewRecorder()
		if _, err := sched.Run(s, g.Sequence(), rec); err != nil {
			return nil, err
		}
		sum := rec.Summary()
		if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), m); err != nil {
			return nil, fmt.Errorf("E7 m=%d: %w", m, err)
		}
		t.AddRow(m, sum.Requests, sum.MaxMigrations, sum.TotalMigrations, sum.MaxReallocations)
	}
	t.Notes = append(t.Notes, "max migrations per request is exactly <= 1 at every machine count (Theorem 1)")
	return t, nil
}

// --- E8: history independence --------------------------------------------

func runE8(quick bool) (*Table, error) {
	trials := 20
	steps := 200
	if quick {
		trials = 5
		steps = 80
	}
	t := newTable("E8", "trial", "active jobs", "snapshot entries", "identical")
	identical := 0
	for trial := 0; trial < trials; trial++ {
		g, err := workload.NewGenerator(workload.Config{
			Seed: int64(trial) + 1000, Gamma: 8, Horizon: 1024, Steps: steps,
		})
		if err != nil {
			return nil, err
		}
		s1 := core.New()
		if _, err := sched.Run(s1, g.Sequence(), nil); err != nil {
			return nil, err
		}
		// Rebuild the final multiset directly, in sorted-name order (a
		// different history).
		s2 := core.New()
		for _, j := range g.Active() {
			if _, err := s2.Insert(j); err != nil {
				return nil, err
			}
		}
		snap1, snap2 := s1.ReservationSnapshot(), s2.ReservationSnapshot()
		same := len(snap1) == len(snap2)
		if same {
			for i := range snap1 {
				if snap1[i] != snap2[i] {
					same = false
					break
				}
			}
		}
		if same {
			identical++
		}
		t.AddRow(trial, len(g.Active()), len(snap1), same)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d trials produced byte-identical reservation states (Observation 7)",
		identical, trials))
	if identical != trials {
		return t, fmt.Errorf("history independence violated in %d trials", trials-identical)
	}
	return t, nil
}

// --- E9: underallocation threshold sweep ----------------------------------

func runE9(quick bool) (*Table, error) {
	gammas := []int64{1, 2, 4, 8, 16}
	steps := 1500
	seeds := 5
	if quick {
		steps = 200
		seeds = 2
	}
	t := newTable("E9", "gamma", "random runs", "completed", "max cost", "adversarial exact-fit")
	for _, gamma := range gammas {
		completed, maxCost := 0, 0
		for seed := 0; seed < seeds; seed++ {
			g, err := workload.NewGenerator(workload.Config{
				Seed: int64(seed), Gamma: gamma, Horizon: 2048, Steps: steps,
			})
			if err != nil {
				return nil, err
			}
			s := core.New()
			rec := metrics.NewRecorder()
			if _, err := sched.Run(s, g.Sequence(), rec); err == nil {
				completed++
				if m := rec.Summary().MaxReallocations; m > maxCost {
					maxCost = m
				}
			}
		}
		t.AddRow(gamma, seeds, completed, maxCost, adversarialExactFit(gamma))
	}
	t.Notes = append(t.Notes,
		"Lemma 8 guarantees success at gamma >= 8; measured, both random churn and the adversarial exact-fit complete even at gamma=1",
		"this matches the paper's own closing remark that its gamma 'is very large, and the paper does not attempt to optimize this constant' — the implementation (which prefers job-free slots at every choice point) is far more robust than the worst-case analysis requires")
	return t, nil
}

// adversarialExactFit packs a span-64 level-1 window with 32/gamma
// same-window jobs and then 32/gamma span-1 base jobs aimed at distinct
// slots, the densest squeeze a gamma-underallocated instance can apply
// to one window's allowance. Returns "ok" or the failing step.
func adversarialExactFit(gamma int64) string {
	s := core.New()
	n := int(32 / gamma)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("w%d", i),
			Window: jobs.Window{Start: 0, End: 64}}); err != nil {
			return fmt.Sprintf("failed at wide insert %d", i)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("b%d", i),
			Window: jobs.Window{Start: int64(i), End: int64(i) + 1}}); err != nil {
			return fmt.Sprintf("failed at base insert %d", i)
		}
	}
	return "ok"
}

// --- E10: trimming and amortized rebuilds ----------------------------------

func runE10(quick bool) (*Table, error) {
	rounds := []int{128, 512, 2048}
	if quick {
		rounds = []int{64, 128}
	}
	t := newTable("E10", "peak n", "requests", "rebuilds", "total cost", "amortized/request", "max single request")
	factory := func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 24)) }
	for _, peak := range rounds {
		s := trim.New(8, factory)
		total, maxOne, requests := 0, 0, 0
		apply := func(c metrics.Cost) {
			total += c.Reallocations
			if c.Reallocations > maxOne {
				maxOne = c.Reallocations
			}
			requests++
		}
		for i := 0; i < peak; i++ {
			c, err := s.Insert(jobs.Job{Name: fmt.Sprintf("g%d", i),
				Window: jobs.Window{Start: 0, End: 1 << 40}})
			if err != nil {
				return nil, err
			}
			apply(c)
		}
		for i := 0; i < peak; i++ {
			c, err := s.Delete(fmt.Sprintf("g%d", i))
			if err != nil {
				return nil, err
			}
			apply(c)
		}
		t.AddRow(peak, requests, s.Rebuilds(), total,
			float64(total)/float64(requests), maxOne)
	}
	t.Notes = append(t.Notes,
		"cost per request stays constant while peak n grows 16x, but single requests spike to O(n) at rebuilds")
	return t, nil
}

// --- E11: end-to-end Theorem 1 stack ---------------------------------------

func runE11(quick bool) (*Table, error) {
	type cfg struct {
		m     int
		steps int
	}
	cfgs := []cfg{{2, 1000}, {4, 2000}, {8, 4000}}
	if quick {
		cfgs = []cfg{{2, 200}, {4, 300}}
	}
	t := newTable("E11", "m", "requests", "max cost", "mean cost", "max migrations", "feasible")
	for _, c := range cfgs {
		s := alignsched.New(multi.New(c.m, func() sched.Scheduler { return core.New() }))
		g, err := workload.NewGenerator(workload.Config{
			Seed: int64(c.m), Machines: c.m, Gamma: 24, Horizon: 8192, Steps: c.steps,
		})
		if err != nil {
			return nil, err
		}
		rec := metrics.NewRecorder()
		// Un-align the generator's windows by jittering the edges: the
		// stack must still serve them (alignment is internal).
		reqs := g.Sequence()
		jittered := make([]jobs.Request, len(reqs))
		for i, r := range reqs {
			jittered[i] = r
			if r.Kind == jobs.Insert {
				// Widening windows preserves underallocation.
				w := r.Window
				jittered[i].Window = jobs.Window{Start: w.Start, End: w.End + w.Span()/3}
			}
		}
		if _, err := sched.Run(s, jittered, rec); err != nil {
			return nil, err
		}
		feas := feasible.VerifySchedule(s.Jobs(), s.Assignment(), c.m) == nil
		sum := rec.Summary()
		t.AddRow(c.m, sum.Requests, sum.MaxReallocations, sum.MeanReallocations, sum.MaxMigrations, feas)
		if !feas {
			return t, fmt.Errorf("E11 m=%d: infeasible schedule", c.m)
		}
	}
	t.Notes = append(t.Notes,
		"the full composition (align -> round-robin -> reservations) keeps costs constant and migrations <= 1 on unaligned input")
	return t, nil
}

// --- E12: the open question — sizes up to k ---------------------------------

func runE12(quick bool) (*Table, error) {
	ks := []int64{4, 16, 64, 256}
	sweeps := 6
	if quick {
		ks = []int64{4, 16}
		sweeps = 2
	}
	t := newTable("E12", "k", "requests", "max slide cost", "O(k) bound k+1", "min sweep cost", "Ω(k) bound k")
	for _, k := range ks {
		res, err := sized.RunSlide(k, 2, sweeps)
		if err != nil {
			return nil, err
		}
		t.AddRow(k, res.Requests, res.MaxSlideCost, k+1, res.MinSweepCost, k)
		if res.MaxSlideCost > int(k)+1 {
			return t, fmt.Errorf("E12 k=%d: slide cost %d exceeds O(k) bound", k, res.MaxSlideCost)
		}
		if res.MinSweepCost < int(k) {
			return t, fmt.Errorf("E12 k=%d: sweep cost %d below Ω(k) bound", k, res.MinSweepCost)
		}
	}
	t.Notes = append(t.Notes,
		"per-request cost sits between Observation 13's Ω(k) and the greedy block scheduler's O(k): the bounds meet for power-of-two sizes",
		"the general integer-size case (non-power-of-two, recursive displacement) remains open, as the paper notes")
	return t, nil
}

// --- E13: per-level cascade anatomy ------------------------------------------

func runE13(quick bool) (*Table, error) {
	steps := 6000
	if quick {
		steps = 600
	}
	g, err := workload.NewGenerator(workload.Config{
		Seed: 13, Gamma: 8, Horizon: 16384, Steps: steps,
	})
	if err != nil {
		return nil, err
	}
	s := core.New(core.WithMaxIntervals(1 << 24))
	perLevelTotal := [align.NumLevels]int{}
	perLevelMax := [align.NumLevels]int{}
	requests := 0
	for i := 0; i < steps; i++ {
		if _, err := sched.Apply(s, g.Next()); err != nil {
			return nil, err
		}
		requests++
		lc := s.LastCostByLevel()
		for l, c := range lc {
			perLevelTotal[l] += c
			if c > perLevelMax[l] {
				perLevelMax[l] = c
			}
		}
	}
	t := newTable("E13", "level", "span range", "total reallocations", "mean/request", "max in one request")
	ranges := []string{"(0, 32]", "(32, 256]", "(256, 2^62]"}
	for l := 0; l < align.NumLevels; l++ {
		t.AddRow(l, ranges[l], perLevelTotal[l],
			float64(perLevelTotal[l])/float64(requests), perLevelMax[l])
		if perLevelMax[l] > 8 {
			return t, fmt.Errorf("E13: level %d saw %d reallocations in one request (Lemma 9 wants O(1))",
				l, perLevelMax[l])
		}
	}
	t.Notes = append(t.Notes,
		"every level contributes at most a small constant per request — the structure behind Lemma 9's proof (one MOVE per level, each causing at most two reallocations)")
	return t, nil
}

// --- E14: hunting the Lemma 8 boundary ---------------------------------------

// exactFitMinSlack runs the E9 exact-fit squeeze at the given gamma and
// reports the minimum Lemma-8 slack reached.
func exactFitMinSlack(gamma int64) int {
	s := core.New()
	n := int(32 / gamma)
	if n < 1 {
		n = 1
	}
	minSlack := 1 << 30
	track := func() {
		if sl := s.MinLemma8Slack(); sl < minSlack {
			minSlack = sl
		}
	}
	for i := 0; i < n; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("ew%d", i),
			Window: jobs.Window{Start: 0, End: 64}}); err != nil {
			return minSlack
		}
		track()
	}
	for i := 0; i < n; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("eb%d", i),
			Window: jobs.Window{Start: int64(i), End: int64(i) + 1}}); err != nil {
			return minSlack
		}
		track()
	}
	return minSlack
}

func runE14(quick bool) (*Table, error) {
	seeds := 25
	steps := 800
	if quick {
		seeds = 5
		steps = 150
	}
	t := newTable("E14", "gamma", "runs", "op failures", "invariant violations", "min slack (random)", "min slack (exact-fit)")
	for _, gamma := range []int64{1, 2, 4, 8} {
		opFailures, violations := 0, 0
		minSlack := 1 << 30
		for seed := 0; seed < seeds; seed++ {
			g, err := workload.NewGenerator(workload.Config{
				Seed: int64(seed)*31 + gamma, Gamma: gamma, Horizon: 1024, Steps: steps,
			})
			if err != nil {
				return nil, err
			}
			s := core.New()
			for i := 0; i < steps; i++ {
				if _, err := sched.Apply(s, g.Next()); err != nil {
					opFailures++
					break
				}
				if slack := s.MinLemma8Slack(); slack < minSlack {
					minSlack = slack
				}
				if err := s.VerifyLemma8(); err != nil {
					violations++
					break
				}
			}
		}
		slackStr := "n/a"
		if minSlack != 1<<30 {
			slackStr = fmt.Sprintf("%d", minSlack)
		}
		t.AddRow(gamma, seeds, opFailures, violations, slackStr, exactFitMinSlack(gamma))
	}
	t.Notes = append(t.Notes,
		"min slack is fulfilled-minus-x minimized over all windows and all states; Lemma 8 guarantees >= 1 at gamma >= 8",
		"the exact-fit adversary (a window squeezed by pinned base jobs) drives the slack to 0 at gamma=1 — Lemma 8's CONCLUSION is violated there, yet no operation ever needed the missing slot, so scheduling still succeeded",
		"at low gamma the slack is driven toward the boundary but (with this implementation's job-free-slot preference) never below it on any sampled run — the guarantee constant is conservative, as the paper's Section 7 anticipates")
	return t, nil
}

// --- E15: the reallocation framework beyond scheduling -----------------------

func runE15(quick bool) (*Table, error) {
	sizes := []int64{1024, 4096, 16384}
	if quick {
		sizes = []int64{256, 1024}
	}
	t := newTable("E15", "n (ascending inserts)", "amortized moves/insert", "log²(n)", "scheduler (E1) cost", "log*(n)")
	for _, n := range sizes {
		p := pma.New()
		total := 0
		for i := int64(1); i <= n; i++ {
			moves, err := p.Insert(i)
			if err != nil {
				return nil, err
			}
			total += moves
		}
		lg := float64(mathx.Log2Ceil(n))
		t.AddRow(n, float64(total)/float64(n), lg*lg, "O(1) measured (see E1)", mathx.LogStar(n))
	}
	t.Notes = append(t.Notes,
		"the paper frames sparse-array maintenance as a sibling reallocation problem (introduction, refs [9,17,31-33])",
		"the PMA pays Θ(log² n) reallocations per update while the paper's scheduler pays O(log* n): both are members of the same framework with very different reallocation prices")
	return t, nil
}

// --- E16: sharded front-end cost parity --------------------------------------

// shardStack builds the Theorem 1 stack for one shard's machine share,
// mirroring realloc.New's composition.
func shardStack(machines int) sched.Scheduler {
	single := func() sched.Scheduler {
		return trim.New(8, func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 20)) })
	}
	var s sched.Scheduler
	if machines == 1 {
		s = single()
	} else {
		s = multi.New(machines, multi.Factory(single))
	}
	return alignsched.New(s)
}

func runE16(quick bool) (*Table, error) {
	machines := 8
	steps := 12000
	if quick {
		steps = 2000
	}
	reqs, err := workload.Mixed(workload.MixedConfig{
		Seed: 3, Machines: machines, Horizon: 1 << 14, Steps: steps,
	})
	if err != nil {
		return nil, err
	}
	t := newTable("E16", "config", "served", "failed", "total realloc", "mean realloc", "total migr", "overflow hops", "imbalance")

	// Sequential baseline.
	seq := shardStack(machines)
	rec := metrics.NewRecorder()
	served, failed := 0, 0
	skip := make(map[string]bool)
	for _, r := range reqs {
		if r.Kind == jobs.Delete && skip[r.Name] {
			continue
		}
		c, err := sched.Apply(seq, r)
		if err != nil {
			failed++
			if r.Kind == jobs.Insert {
				skip[r.Name] = true
			}
			continue
		}
		served++
		rec.Record(c)
	}
	sum := rec.Summary()
	t.AddRow("sequential", served, failed, sum.TotalReallocations, sum.MeanReallocations,
		sum.TotalMigrations, 0, "n/a")
	baseline := sum.TotalReallocations

	for _, shards := range []int{1, 4, 8} {
		s := shard.New(shard.Config{Shards: shards, Machines: machines, Factory: shardStack})
		skip := make(map[string]bool)
		for _, r := range reqs {
			if r.Kind == jobs.Delete && skip[r.Name] {
				continue
			}
			if _, err := s.Apply(r); err != nil && r.Kind == jobs.Insert {
				skip[r.Name] = true
			}
		}
		rep := s.Report()
		tot := rep.Total()
		mean := 0.0
		if n := rep.Served(); n > 0 {
			mean = float64(tot.Cost.Reallocations) / float64(n)
		}
		t.AddRow(fmt.Sprintf("sharded-%d", shards), rep.Served(), tot.Failures,
			tot.Cost.Reallocations, mean, tot.Cost.Migrations, tot.Overflow,
			rep.Imbalance())
		if tot.Cost.Reallocations > 3*baseline {
			s.Close()
			return t, fmt.Errorf("E16: sharded-%d paid %d reallocations, >3x the sequential %d",
				shards, tot.Cost.Reallocations, baseline)
		}
		s.Close()
	}
	t.Notes = append(t.Notes,
		"each shard preserves Theorem 1's bounds on its own machine range; totals track the sequential stack",
		"overflow hops count inserts the primary shard rejected as locally infeasible and a fallback shard absorbed",
		"imbalance is max/mean requests per shard under consistent-hash routing of job names")
	return t, nil
}

// --- E17: elastic pool resizing with bounded migrations -----------------------

// elasticShardStack is shardStack with the multi wrapper always present
// so every shard implements sched.Elastic (mirrors realloc.NewSharded).
func elasticShardStack(machines int) sched.Scheduler {
	single := func() sched.Scheduler {
		return trim.New(8, func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 20)) })
	}
	return alignsched.New(multi.New(machines, multi.Factory(single)))
}

func runE17(quick bool) (*Table, error) {
	const shards = 4
	steps := 1500
	if quick {
		steps = 300
	}
	phases, err := workload.Elastic(workload.ElasticConfig{
		Seed: 17, BaseMachines: 8, PeakMachines: 16, StepsPerPhase: steps,
	})
	if err != nil {
		return nil, err
	}
	s := shard.New(shard.Config{Shards: shards, Machines: phases[0].Machines, Factory: elasticShardStack})
	defer s.Close()

	t := newTable("E17", "phase", "pool", "served", "failed", "resize migrations", "shard jobs before", "bound holds")
	for _, p := range phases {
		// Resize shard by shard (grows before shrinks, like Resize),
		// capturing each shard's job count immediately before its own
		// shrink: earlier shrinks in the same re-partition re-home
		// evictions onto later shards, so a count taken up front would
		// understate what the later shard legitimately holds.
		deltas := make([]int, shards)
		for i := range deltas {
			m := p.Machines / shards
			if i < p.Machines%shards {
				m++
			}
			deltas[i] = m - s.ShardMachines(i)
		}
		migr, before, ok := 0, 0, true
		for _, shrink := range []bool{false, true} {
			for i, d := range deltas {
				if d == 0 || (d < 0) != shrink {
					continue
				}
				jobsNow := s.Report().Shards[i].Active
				rc, err := s.ResizeShard(i, d)
				if err != nil {
					return t, fmt.Errorf("E17: resize shard %d by %d: %w", i, d, err)
				}
				migr += rc.Cost.Migrations
				if d > 0 && rc.Cost.Migrations != 0 {
					ok = false // growing must never move a job
				}
				if d < 0 {
					before += jobsNow
					if rc.Cost.Migrations > jobsNow {
						ok = false // shrink bound: <= jobs the shard held
					}
				}
				if rc.Dropped != 0 {
					return t, fmt.Errorf("E17: resize dropped %d jobs", rc.Dropped)
				}
			}
		}

		served, failed := 0, 0
		for _, r := range p.Reqs {
			if _, err := s.Apply(r); err != nil {
				failed++
				continue
			}
			served++
		}
		t.AddRow(p.Name, p.Machines, served, failed, migr, before, ok)
		if !ok {
			return t, fmt.Errorf("E17: migration bound violated in phase %s", p.Name)
		}
		if failed != 0 {
			return t, fmt.Errorf("E17: %d requests failed in phase %s (scenario is underallocated by construction)",
				failed, p.Name)
		}
		snap := s.Snapshot()
		if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
			return t, fmt.Errorf("E17: phase %s: %w", p.Name, err)
		}
	}
	t.Notes = append(t.Notes,
		"growing the pool relabels the global machine view but moves zero jobs",
		"each shrink migrates at most the shrunken shard's job count (drained-machine jobs re-placed locally or on the least-loaded shards)",
		"every phase replays with zero failed requests while the pool breathes base -> peak -> base")
	return t, nil
}
