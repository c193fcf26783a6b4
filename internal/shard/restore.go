// Checkpoint restoration: rebuild a sharded front-end from a durable
// point-in-time image without replaying the request history that
// produced it. The machine-range partition is resurrected exactly as
// checkpointed; each shard's job set is re-admitted on its original
// shard through the inner stack's bulk path, which rebuilds every layer
// — interned ID tables, trim caps and queues, alignment windows,
// per-machine reservation structures, per-interval rank tables — from the job
// set alone in O(jobs), not O(history). Placements are recomputed (the
// restored schedule is feasible for the same jobs, not bit-identical to
// the checkpointed one); job→shard locality IS preserved, so restored
// shards stay balanced the way the live scheduler had balanced them.
package shard

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/wal"
)

// Restore builds a sharded scheduler from a checkpoint image. The
// checkpoint is authoritative for the shard count and the machine
// partition: cfg.Shards and cfg.Machines must be zero or match it
// (a mismatch is an error, not a silent re-partition). The remaining
// config (Factory, Policy) applies as in New; leave
// cfg.WAL nil and attach the log with AttachWAL once the tail replay is
// done, so replaying a record cannot re-append it.
//
// Jobs whose original shard rejects them (possible only when the
// checkpointed set is not shard-locally underallocated, e.g. after a
// config change) are retried through the normal routed path with
// overflow; only jobs NO shard can absorb make Restore fail, and the
// error names them.
func Restore(cfg Config, ck *wal.Checkpoint) (*Scheduler, error) {
	if ck == nil {
		return nil, fmt.Errorf("shard: Restore with nil checkpoint")
	}
	shards := len(ck.ShardMachines)
	if shards == 0 {
		return nil, fmt.Errorf("shard: checkpoint with no shards")
	}
	machines := 0
	for i, m := range ck.ShardMachines {
		if m < 1 {
			return nil, fmt.Errorf("shard: checkpoint shard %d with %d machines", i, m)
		}
		machines += m
	}
	if cfg.Shards != 0 && cfg.Shards != shards {
		return nil, fmt.Errorf("shard: config wants %d shards but the checkpoint has %d", cfg.Shards, shards)
	}
	if cfg.Machines != 0 && cfg.Machines != machines {
		return nil, fmt.Errorf("shard: config wants %d machines but the checkpoint has %d", cfg.Machines, machines)
	}

	// Partition the checkpointed jobs by the shard whose machine range
	// held them.
	perShard := make([][]jobs.Job, shards)
	for _, j := range ck.Jobs {
		pl, ok := ck.Assignment[j.Name]
		if !ok {
			return nil, fmt.Errorf("shard: checkpoint job %q has no placement", j.Name)
		}
		si, err := shardOfMachine(ck.ShardMachines, pl.Machine)
		if err != nil {
			return nil, fmt.Errorf("shard: checkpoint job %q: %w", j.Name, err)
		}
		perShard[si] = append(perShard[si], j)
	}

	s := newScheduler(cfg, append([]int(nil), ck.ShardMachines...))
	var leftover []jobs.Job
	for i := range s.shards {
		if len(perShard[i]) == 0 {
			continue
		}
		var failed []jobs.Job
		var err error
		s.locked(i, func(sh *shard) {
			failed, err = sched.RestoreJobs(sh.inner, perShard[i])
		})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("shard: restoring shard %d: %w", i, err)
		}
		notAdmitted := make(map[string]bool, len(failed))
		for _, j := range failed {
			notAdmitted[j.Name] = true
		}
		s.mu.Lock()
		for _, j := range perShard[i] {
			if notAdmitted[j.Name] {
				continue
			}
			s.setRoute(s.names.Intern(j.Name), i)
			s.loads[i]++
			s.active++
		}
		s.mu.Unlock()
		leftover = append(leftover, failed...)
	}

	// Second chance: route the stragglers like fresh inserts (primary by
	// policy, overflow to the least-loaded shard on local infeasibility).
	var lost []string
	for _, j := range leftover {
		if _, err := s.Apply(jobs.Request{Kind: jobs.Insert, Name: j.Name, Window: j.Window}); err != nil {
			lost = append(lost, j.Name)
		}
	}
	if len(lost) > 0 {
		s.Close()
		return nil, fmt.Errorf("shard: restore could not re-admit %d checkpointed job(s): %v", len(lost), lost)
	}
	return s, nil
}

// shardOfMachine maps a global machine index to the shard owning it
// under the given partition.
func shardOfMachine(shardMachines []int, machine int) (int, error) {
	base := 0
	for i, m := range shardMachines {
		if machine < base+m {
			if machine < base {
				break
			}
			return i, nil
		}
		base += m
	}
	return 0, fmt.Errorf("machine %d outside the %d-machine pool", machine, base)
}
