package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/jobs"
)

// Checkpoint is a durable point-in-time image of the sharded
// front-end: the active jobs, their placements in the global machine
// range, and the per-shard machine partition. Log.Checkpoint writes it
// as a KindCheckpoint record at the head of a fresh segment.
type Checkpoint struct {
	// ShardMachines is each shard's machine count, in shard order. The
	// global machine range is their concatenation.
	ShardMachines []int
	// Jobs is the active job set, sorted by name (the codec enforces
	// canonical order so equal images encode to equal bytes).
	Jobs []jobs.Job
	// Assignment maps every job in Jobs to its placement.
	Assignment jobs.Assignment
}

// Machines returns the total machine pool size.
func (c *Checkpoint) Machines() int {
	total := 0
	for _, m := range c.ShardMachines {
		total += m
	}
	return total
}

// maxShards bounds a checkpoint's shard count.
const maxShards = 1 << 16

// appendCheckpoint encodes a checkpoint record's body in canonical
// form: the shard partition, then the jobs sorted by name, each with
// its placement. Every job must have a placement in Assignment. Equal
// images always encode to identical bytes.
func appendCheckpoint(b []byte, ck *Checkpoint) ([]byte, error) {
	if len(ck.ShardMachines) == 0 || len(ck.ShardMachines) > maxShards {
		return b, fmt.Errorf("wal: checkpoint with %d shard(s)", len(ck.ShardMachines))
	}
	js := append([]jobs.Job(nil), ck.Jobs...)
	sort.Slice(js, func(i, k int) bool { return js[i].Name < js[k].Name })
	b = binary.AppendUvarint(b, uint64(len(ck.ShardMachines)))
	for _, m := range ck.ShardMachines {
		if m < 1 {
			return b, fmt.Errorf("wal: checkpoint shard with %d machines", m)
		}
		b = binary.AppendUvarint(b, uint64(m))
	}
	b = binary.AppendUvarint(b, uint64(len(js)))
	for i, j := range js {
		if i > 0 && js[i-1].Name >= j.Name {
			return b, fmt.Errorf("wal: duplicate job %q in checkpoint", j.Name)
		}
		if len(j.Name) > maxNameLen {
			return b, fmt.Errorf("wal: job name of %d bytes exceeds the %d cap", len(j.Name), maxNameLen)
		}
		pl, ok := ck.Assignment[j.Name]
		if !ok {
			return b, fmt.Errorf("wal: job %q has no placement in the checkpoint assignment", j.Name)
		}
		b = AppendPlaced(b, j, pl)
	}
	return b, nil
}

// checkpoint reads a checkpoint record's body written by
// appendCheckpoint. It is strict: a shard count out of range, a shard
// without machines, or job names out of canonical order are failures.
func (r *Reader) checkpoint() *Checkpoint {
	ck := &Checkpoint{}
	shards := r.Count(1)
	if shards == 0 || shards > maxShards {
		r.Fail(fmt.Errorf("checkpoint with %d shard(s)", shards))
		return nil
	}
	ck.ShardMachines = make([]int, shards)
	for i := range ck.ShardMachines {
		m := r.Uvarint()
		if m < 1 || m > 1<<32 {
			r.Fail(fmt.Errorf("checkpoint shard %d with %d machines", i, m))
		}
		ck.ShardMachines[i] = int(m)
	}
	njobs := r.Count(MinPlacedLen)
	ck.Jobs = make([]jobs.Job, 0, njobs)
	ck.Assignment = make(jobs.Assignment, njobs)
	for i := 0; i < njobs; i++ {
		j, pl := r.Placed()
		if i > 0 && j.Name <= ck.Jobs[i-1].Name {
			r.Fail(fmt.Errorf("checkpoint jobs out of canonical order at %q", j.Name))
		}
		ck.Jobs = append(ck.Jobs, j)
		ck.Assignment[j.Name] = pl
	}
	return ck
}
