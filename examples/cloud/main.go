// Cloud: batch jobs with deadlines scheduled across a pool of machines.
// Jobs arrive and finish continuously; the scheduler keeps a feasible
// plan while migrating at most one job between machines per request —
// migrations are expensive (container state must move), so the Theorem 1
// bound matters operationally.
//
// The second half drives the same pool through the concurrent sharded
// front-end: four submitter goroutines fire requests at a 4-shard
// scheduler and the per-shard cost report shows how the load spread.
//
// The third section autoscales: the sharded pool grows for a traffic
// burst and shrinks back afterward, with the resize bill (evictions and
// migrations) printed next to what a rebuild-from-scratch would pay.
//
// Run with: go run ./examples/cloud
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	realloc "repro"
)

const (
	machines = 4
	horizon  = 4096
)

func main() {
	s := realloc.New(realloc.WithMachines(machines))
	rng := rand.New(rand.NewSource(7))

	totalMigrations, totalReallocs, worstMigr := 0, 0, 0
	running := []string{}
	id := 0

	for step := 0; step < 2000; step++ {
		var (
			cost realloc.Cost
			err  error
		)
		if len(running) > 120 && rng.Intn(2) == 0 {
			// A batch job finished.
			i := rng.Intn(len(running))
			cost, err = s.Delete(running[i])
			running = append(running[:i], running[i+1:]...)
		} else {
			// A new batch job with a deadline: pick an arrival point and a
			// completion window wide enough to keep the pool underallocated.
			name := fmt.Sprintf("batch-%05d", id)
			id++
			start := rng.Int63n(horizon * 3 / 4)
			span := int64(256 + rng.Intn(1024))
			end := start + span
			if end > horizon {
				end = horizon
			}
			cost, err = s.Insert(realloc.Job{Name: name, Window: realloc.Win(start, end)})
			running = append(running, name)
		}
		if err != nil {
			log.Fatalf("step %d: %v", step, err)
		}
		totalMigrations += cost.Migrations
		totalReallocs += cost.Reallocations
		if cost.Migrations > worstMigr {
			worstMigr = cost.Migrations
		}
	}

	perMachine := make([]int, machines)
	for _, p := range s.Assignment() {
		perMachine[p.Machine]++
	}

	fmt.Printf("cloud pool: %d machines, %d jobs in flight after 2000 requests\n\n", machines, s.Active())
	fmt.Printf("total reallocations: %d (%.2f per request)\n",
		totalReallocs, float64(totalReallocs)/2000)
	fmt.Printf("total migrations:    %d (%.3f per request, worst single request %d)\n",
		totalMigrations, float64(totalMigrations)/2000, worstMigr)
	fmt.Printf("\nload per machine:\n")
	for i, n := range perMachine {
		fmt.Printf("  machine %d: %3d jobs %s\n", i, n, bar(n))
	}
	fmt.Println("\nTheorem 1 guarantees at most ONE migration per request —" +
		"\nobserve worst single request above.")

	shardedVariant()
}

// shardedVariant replays a similar churn concurrently: four submitter
// goroutines with disjoint job namespaces hammer a 4-shard front-end,
// each request returning once its shard has served it.
func shardedVariant() {
	const submitters = 4
	s := realloc.NewSharded(realloc.WithMachines(machines), realloc.WithShards(4))
	defer s.Close()

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var running []string
			for step := 0; step < 500; step++ {
				if len(running) > 30 && rng.Intn(2) == 0 {
					// A job finished: delete it.
					i := rng.Intn(len(running))
					if _, err := s.Delete(running[i]); err != nil {
						log.Fatalf("submitter %d: %v", g, err)
					}
					running = append(running[:i], running[i+1:]...)
					continue
				}
				name := fmt.Sprintf("pool%d-%05d", g, step)
				start := rng.Int63n(horizon * 3 / 4)
				span := int64(256 + rng.Intn(1024))
				end := start + span
				if end > horizon {
					end = horizon
				}
				if _, err := s.Insert(realloc.Job{Name: name, Window: realloc.Win(start, end)}); err != nil {
					log.Fatalf("submitter %d: %v", g, err)
				}
				running = append(running, name)
			}
		}(g)
	}
	wg.Wait()
	if err := realloc.Verify(s); err != nil {
		log.Fatalf("verify: %v", err)
	}

	fmt.Printf("\n--- sharded front-end: %d submitters x 500 requests, %d shards over %d machines ---\n",
		submitters, s.Shards(), s.Machines())
	fmt.Println(s.Report())
	fmt.Println("\nEach shard is an independent Theorem 1 stack; consistent hashing" +
		"\nof job names spread the concurrent load above.")

	autoscaleVariant()
}

// autoscaleVariant breathes the machine pool under live traffic: scale
// up for a burst (no job moves), scale down after it drains (only the
// drained machines' jobs move). A rebuild-from-scratch would instead
// move every resident job at every pool change.
func autoscaleVariant() {
	s := realloc.NewSharded(realloc.WithMachines(machines), realloc.WithShards(4))
	defer s.Close()
	rng := rand.New(rand.NewSource(11))

	var running []string
	churn := func(steps, survivors int) {
		for i := 0; i < steps; i++ {
			if len(running) > survivors && rng.Intn(2) == 0 {
				k := rng.Intn(len(running))
				if _, err := s.Delete(running[k]); err != nil {
					log.Fatalf("autoscale delete: %v", err)
				}
				running = append(running[:k], running[k+1:]...)
				continue
			}
			name := fmt.Sprintf("auto-%05d", len(running)+i*7919)
			start := rng.Int63n(horizon * 3 / 4)
			end := start + int64(256+rng.Intn(1024))
			if end > horizon {
				end = horizon
			}
			if _, err := s.Insert(realloc.Job{Name: name, Window: realloc.Win(start, end)}); err != nil {
				continue // a smaller pool may be momentarily full
			}
			running = append(running, name)
		}
	}

	fmt.Printf("\n--- autoscaling: the pool breathes %d -> %d -> %d machines under load ---\n",
		machines, 2*machines, machines)
	churn(400, 60)
	resident := s.Active()

	up, err := s.Resize(2 * machines)
	if err != nil {
		log.Fatalf("scale-up: %v", err)
	}
	fmt.Printf("scale-up   to %2d machines: %3d resident jobs, %d migrations (growing moves nothing)\n",
		s.Machines(), resident, up.Cost.Migrations)
	churn(600, 160) // the burst

	// Burst over: drain back toward the steady population, then shrink.
	for len(running) > 60 {
		k := rng.Intn(len(running))
		if _, err := s.Delete(running[k]); err != nil {
			log.Fatalf("autoscale drain: %v", err)
		}
		running = append(running[:k], running[k+1:]...)
	}
	resident = s.Active()
	down, err := s.Resize(machines)
	if err != nil {
		log.Fatalf("scale-down: %v", err)
	}
	fmt.Printf("scale-down to %2d machines: %3d resident jobs, %d migrations (vs %d for a rebuild)\n",
		s.Machines(), resident, down.Cost.Migrations, resident)
	fmt.Printf("            %d jobs evicted across shards, %d re-placed, %d dropped\n",
		down.Evicted, down.Reinserted, down.Dropped)

	if err := realloc.Verify(s); err != nil {
		log.Fatalf("autoscale verify: %v", err)
	}
	fmt.Println("\nShrinking moved only the drained machines' jobs — Theorem 1's" +
		"\nmigration discipline extended to the machine pool itself.")
}

func bar(n int) string {
	out := make([]byte, n/2)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
