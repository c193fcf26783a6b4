// Command realloctrace records, replays, and minimizes request traces
// (JSON Lines, see trace.go) against any of the repository's
// schedulers, and converts binary WAL directories to the same JSONL
// format.
//
// Usage:
//
//	realloctrace -mode gen   -steps 500 -seed 7 > churn.jsonl
//	realloctrace -mode record -in churn.jsonl > annotated.jsonl
//	realloctrace -mode replay -in annotated.jsonl      # verify costs match
//	realloctrace -mode shrink -in failing.jsonl        # minimize a reproducer
//	realloctrace -mode waldump -wal ./waldir > log.jsonl  # WAL -> JSONL
//
// The -sched flag selects the scheduler: stack (default, the full
// Theorem 1 composition), core, naive, or edf. -machines sets m where
// supported.
//
// waldump reads a durability directory (realloc.WithWAL) without
// modifying it: the checkpointed jobs are emitted as insert events (the
// trace that rebuilds the image), then every log record follows in
// append order — batches flattened, resizes and torn-tail diagnostics
// as '#' comment lines, which the trace reader skips — so a binary WAL
// becomes a replayable, diffable trace artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	realloc "repro"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/naive"
	"repro/internal/sched"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		mode     = flag.String("mode", "record", "gen | record | replay | shrink | waldump")
		in       = flag.String("in", "", "input trace file (default stdin)")
		walDir   = flag.String("wal", "", "waldump: WAL directory (realloc.WithWAL)")
		schedKnd = flag.String("sched", "stack", "scheduler: stack | core | naive | edf")
		machines = flag.Int("machines", 1, "machine count (stack and edf)")
		steps    = flag.Int("steps", 500, "gen: number of requests")
		seed     = flag.Int64("seed", 1, "gen: random seed")
		gamma    = flag.Int64("gamma", 8, "gen: underallocation slack")
	)
	flag.Parse()

	factory := func() sched.Scheduler {
		switch *schedKnd {
		case "stack":
			return realloc.New(realloc.WithMachines(*machines))
		case "core":
			return core.New(core.WithMaxIntervals(1 << 24))
		case "naive":
			return naive.New()
		case "edf":
			return edf.New(*machines)
		default:
			fmt.Fprintf(os.Stderr, "realloctrace: unknown scheduler %q\n", *schedKnd)
			os.Exit(2)
			return nil
		}
	}

	switch *mode {
	case "gen":
		g, err := workload.NewGenerator(workload.Config{
			Seed: *seed, Gamma: *gamma, Machines: *machines, Steps: *steps,
			Horizon: 4096,
		})
		if err != nil {
			fail(err)
		}
		if err := writeTrace(os.Stdout, g.Sequence()); err != nil {
			fail(err)
		}

	case "record":
		reqs, err := readTrace(input(*in))
		if err != nil {
			fail(err)
		}
		if _, err := record(factory(), reqs, os.Stdout); err != nil {
			fail(err)
		}

	case "replay":
		events, err := readEvents(input(*in))
		if err != nil {
			fail(err)
		}
		if err := replay(factory(), events); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "realloctrace: %d events replayed, all recorded costs match\n", len(events))

	case "shrink":
		reqs, err := readTrace(input(*in))
		if err != nil {
			fail(err)
		}
		if !fails(factory, reqs) {
			fmt.Fprintln(os.Stderr, "realloctrace: trace does not fail; nothing to shrink")
			os.Exit(1)
		}
		small := shrink(factory, reqs)
		fmt.Fprintf(os.Stderr, "realloctrace: shrunk %d -> %d requests\n", len(reqs), len(small))
		if err := writeTrace(os.Stdout, small); err != nil {
			fail(err)
		}

	case "waldump":
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "realloctrace: waldump needs -wal DIR")
			os.Exit(2)
		}
		if err := dumpWAL(*walDir, os.Stdout); err != nil {
			fail(err)
		}

	default:
		fmt.Fprintf(os.Stderr, "realloctrace: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// dumpWAL converts a durability directory to the JSONL trace format.
func dumpWAL(dir string, w io.Writer) error {
	rec, err := wal.Read(dir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if ck := rec.Checkpoint; ck != nil {
		fmt.Fprintf(w, "# checkpoint record: %d job(s) on %d machine(s) across %d shard(s) %v\n",
			len(ck.Jobs), ck.Machines(), len(ck.ShardMachines), ck.ShardMachines)
		for _, j := range ck.Jobs {
			if err := enc.Encode(fromRequest(realloc.InsertReq(j.Name, j.Window.Start, j.Window.End))); err != nil {
				return err
			}
		}
		fmt.Fprintln(w, "# end of checkpoint image; the records after it follow")
	}
	for _, r := range rec.Records {
		switch r.Kind {
		case wal.KindRequest:
			if err := enc.Encode(fromRequest(r.Req)); err != nil {
				return err
			}
		case wal.KindBatch:
			fmt.Fprintf(w, "# batch of %d\n", len(r.Batch))
			for _, req := range r.Batch {
				if err := enc.Encode(fromRequest(req)); err != nil {
					return err
				}
			}
		case wal.KindResize:
			if r.Resize.Shard < 0 {
				fmt.Fprintf(w, "# resize pool to %d machines\n", r.Resize.Machines)
			} else {
				fmt.Fprintf(w, "# resize shard %d by %+d machines\n", r.Resize.Shard, r.Resize.Delta)
			}
		}
	}
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(w, "# torn tail: %d byte(s) of an interrupted group commit not replayable\n", rec.TruncatedBytes)
	}
	return nil
}

func input(path string) io.Reader {
	if path == "" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	return f
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "realloctrace: %v\n", err)
	os.Exit(1)
}
