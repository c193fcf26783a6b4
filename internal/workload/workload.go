// Package workload generates random request sequences that are
// γ-underallocated by construction, the precondition of the paper's
// Theorem 1. It also provides the scenario generators the experiments
// and load tools replay (mixed, burst, elastic, trace-shaped and
// adversarial streams).
//
// Underallocation is enforced with a dyadic budget tree: for every
// aligned window V over the horizon, the number of active jobs whose
// windows nest inside V never exceeds m*|V|/γ. By Lemma 2 this is the
// exact slack the paper's schedulers rely on, and it implies feasibility
// (Hall's condition) whenever γ >= 1.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/jobs"
	"repro/internal/mathx"
)

// subSeed derives an independent seed for a named sub-stream of a
// scenario from its top-level seed. It is a splitmix64 round over the
// (seed, stream) pair, so nearby seeds and nearby stream IDs land in
// unrelated parts of the sequence space. Scenarios must use this —
// never `cfg.Seed + k` — to seed secondary generators: additive
// offsets alias (seed S, stream 2) with (seed S+2, stream 0), which
// correlates runs that are supposed to be independent.
func subSeed(seed int64, stream uint64) int64 {
	x := uint64(seed) ^ (0x9e3779b97f4a7c15 * (stream + 1))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// maxHorizon bounds Config.Horizon and TraceConfig.Horizon: the budget
// tree keeps 2*Horizon counters, 16 MiB at this bound.
const maxHorizon = 1 << 20

// Config parameterizes the random aligned churn generator.
type Config struct {
	Seed     int64
	Machines int   // m in the underallocation budget (default 1)
	Gamma    int64 // slack factor enforced by construction (default 8)
	Horizon  int64 // timeline is [0, Horizon), a power of two (default 1024)
	MaxSpan  int64 // largest window span generated, a power of two (default Horizon)
	MinSpan  int64 // smallest window span generated, a power of two (default 1)
	// Target is the active-job population the generator steers toward:
	// below Target it mostly inserts, above it mostly deletes.
	Target int
	// Steps is the number of requests to generate.
	Steps int
}

func (c *Config) fill() error {
	if c.Machines == 0 {
		c.Machines = 1
	}
	if c.Gamma == 0 {
		c.Gamma = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 1024
	}
	if c.MaxSpan == 0 {
		c.MaxSpan = c.Horizon
	}
	if c.MinSpan == 0 {
		c.MinSpan = 1
	}
	if c.Target == 0 {
		c.Target = int(c.Horizon * int64(c.Machines) / (4 * c.Gamma))
		if c.Target < 1 {
			c.Target = 1
		}
	}
	if c.Steps == 0 {
		c.Steps = 4 * c.Target
	}
	if !mathx.IsPow2(c.Horizon) || !mathx.IsPow2(c.MaxSpan) || !mathx.IsPow2(c.MinSpan) {
		return fmt.Errorf("workload: horizon, max span, and min span must be powers of two (got %d, %d, %d)",
			c.Horizon, c.MaxSpan, c.MinSpan)
	}
	if c.Horizon > maxHorizon {
		return fmt.Errorf("workload: horizon %d exceeds %d", c.Horizon, maxHorizon)
	}
	if c.MinSpan > c.MaxSpan || c.MaxSpan > c.Horizon {
		return fmt.Errorf("workload: need MinSpan <= MaxSpan <= Horizon (got %d, %d, %d)",
			c.MinSpan, c.MaxSpan, c.Horizon)
	}
	return nil
}

// Generator produces γ-underallocated aligned request sequences and
// tracks the active set it has emitted.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	budget *budgetTree
	active []jobs.Job // insertion-ordered active jobs
	names  map[string]int
	nextID int
}

// NewGenerator validates the config and returns a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		budget: newBudgetTree(cfg.Horizon, int64(cfg.Machines), cfg.Gamma),
		names:  make(map[string]int),
	}, nil
}

// Active returns a snapshot of the active job set.
func (g *Generator) Active() []jobs.Job {
	out := make([]jobs.Job, len(g.active))
	copy(out, g.active)
	return out
}

// Next produces the next request. The emitted sequence keeps the active
// set γ-underallocated after every request.
func (g *Generator) Next() jobs.Request {
	insertBias := 0.85
	if len(g.active) >= g.cfg.Target {
		insertBias = 0.35
	}
	if len(g.active) > 0 && g.rng.Float64() > insertBias {
		return g.emitDelete()
	}
	if r, ok := g.tryInsert(); ok {
		return r
	}
	// Budget exhausted everywhere useful: churn by deleting.
	if len(g.active) > 0 {
		return g.emitDelete()
	}
	panic("workload: cannot insert into empty budget (gamma too large for horizon)")
}

// Sequence produces cfg.Steps requests.
func (g *Generator) Sequence() []jobs.Request {
	out := make([]jobs.Request, 0, g.cfg.Steps)
	for i := 0; i < g.cfg.Steps; i++ {
		out = append(out, g.Next())
	}
	return out
}

func (g *Generator) emitDelete() jobs.Request {
	i := g.rng.Intn(len(g.active))
	j := g.active[i]
	g.active[i] = g.active[len(g.active)-1]
	g.active = g.active[:len(g.active)-1]
	delete(g.names, j.Name)
	g.budget.remove(j.Window)
	return jobs.DeleteReq(j.Name)
}

// tryInsert samples aligned windows until one fits the budget (bounded
// retries) and emits the insert.
func (g *Generator) tryInsert() (jobs.Request, bool) {
	minE := mathx.Log2Exact(g.cfg.MinSpan)
	maxE := mathx.Log2Exact(g.cfg.MaxSpan)
	for attempt := 0; attempt < 64; attempt++ {
		e := minE + g.rng.Intn(maxE-minE+1)
		span := int64(1) << uint(e)
		start := mathx.AlignDown(g.rng.Int63n(g.cfg.Horizon), span)
		w := jobs.Window{Start: start, End: start + span}
		if !g.budget.tryAdd(w) {
			continue
		}
		name := fmt.Sprintf("j%06d", g.nextID)
		g.nextID++
		g.active = append(g.active, jobs.Job{Name: name, Window: w})
		g.names[name] = 1
		return jobs.InsertReq(name, w.Start, w.End), true
	}
	return jobs.Request{}, false
}

// budgetTree tracks, for every dyadic window over [0, horizon), how many
// active jobs nest inside it, and admits a new job only if every
// ancestor keeps count*gamma <= m*span. The windows form an implicit
// binary heap: [start, start+span) is node (horizon+start)/span, the
// parent of node i is i/2, and the root [0, horizon) is node 1.
type budgetTree struct {
	horizon int64
	m       int64
	gamma   int64
	counts  []int64
}

func newBudgetTree(horizon, m, gamma int64) *budgetTree {
	return &budgetTree{horizon: horizon, m: m, gamma: gamma, counts: make([]int64, 2*horizon)}
}

// tryAdd admits w if the budget allows, updating counts.
func (b *budgetTree) tryAdd(w jobs.Window) bool {
	node := (b.horizon + w.Start) / w.Span()
	for i, span := node, w.Span(); i >= 1; i, span = i/2, span*2 {
		if (b.counts[i]+1)*b.gamma > b.m*span {
			return false
		}
	}
	for i := node; i >= 1; i /= 2 {
		b.counts[i]++
	}
	return true
}

// remove releases w's budget.
func (b *budgetTree) remove(w jobs.Window) {
	for i := (b.horizon + w.Start) / w.Span(); i >= 1; i /= 2 {
		if b.counts[i] == 0 {
			panic(fmt.Sprintf("workload: budget underflow at node %d", i))
		}
		b.counts[i]--
	}
}

// NestedCascade builds the insertion sequence that maximizes the naive
// scheduler's cascade depth (the Lemma 4 worst case): for every span
// 2^e from maxSpan down to 2, fill a quarter of the window [0, span)
// with jobs of that span, then repeatedly probe with span-1 jobs at
// [0, 1). The result exercises Θ(log Δ) cascades while remaining
// 2-underallocated.
func NestedCascade(maxSpan int64, probes int) []jobs.Request {
	if !mathx.IsPow2(maxSpan) || maxSpan < 4 {
		panic(fmt.Sprintf("workload: NestedCascade span %d must be a power of two >= 4", maxSpan))
	}
	var reqs []jobs.Request
	id := 0
	for span := maxSpan; span >= 2; span /= 2 {
		n := span / 4
		if n == 0 {
			n = 1
		}
		for i := int64(0); i < n; i++ {
			reqs = append(reqs, jobs.InsertReq(fmt.Sprintf("fill%06d", id), 0, span))
			id++
		}
	}
	for p := 0; p < probes; p++ {
		name := fmt.Sprintf("probe%04d", p)
		reqs = append(reqs, jobs.InsertReq(name, 0, 1))
		reqs = append(reqs, jobs.DeleteReq(name))
	}
	return reqs
}
