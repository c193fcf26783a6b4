package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/jobs"
)

// Checkpoint is a durable point-in-time image of the sharded
// front-end: the active jobs, their placements in the global machine
// range, the per-shard machine partition, and the WAL segment from
// which replay resumes.
type Checkpoint struct {
	// StartSeg is the first WAL segment NOT covered by this checkpoint:
	// recovery restores the image, then replays segments >= StartSeg.
	StartSeg uint64
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

// Checkpoint format: a fixed header, a body, and a trailing CRC-32C of
// everything before it. checkpointVersion guards format evolution — a
// decoder rejects versions it does not know.
const (
	checkpointMagic   = "RCKP"
	checkpointVersion = 1
	ckptHeaderLen     = 8 // magic + u32 version
	maxShards         = 1 << 16
)

// EncodeCheckpoint renders the checkpoint in canonical form: jobs are
// sorted by name, and every job must have a placement in Assignment.
// Equal images always encode to identical bytes.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	if len(ck.ShardMachines) == 0 || len(ck.ShardMachines) > maxShards {
		return nil, fmt.Errorf("wal: checkpoint with %d shard(s)", len(ck.ShardMachines))
	}
	js := append([]jobs.Job(nil), ck.Jobs...)
	sort.Slice(js, func(i, k int) bool { return js[i].Name < js[k].Name })
	b := make([]byte, 0, 64+32*len(js))
	b = append(b, checkpointMagic...)
	b = binary.LittleEndian.AppendUint32(b, checkpointVersion)
	b = binary.AppendUvarint(b, ck.StartSeg)
	b = binary.AppendUvarint(b, uint64(len(ck.ShardMachines)))
	for _, m := range ck.ShardMachines {
		if m < 1 {
			return nil, fmt.Errorf("wal: checkpoint shard with %d machines", m)
		}
		b = binary.AppendUvarint(b, uint64(m))
	}
	b = binary.AppendUvarint(b, uint64(len(js)))
	for i, j := range js {
		if i > 0 && js[i-1].Name >= j.Name {
			return nil, fmt.Errorf("wal: duplicate job %q in checkpoint", j.Name)
		}
		if len(j.Name) > maxNameLen {
			return nil, fmt.Errorf("wal: job name of %d bytes exceeds the %d cap", len(j.Name), maxNameLen)
		}
		pl, ok := ck.Assignment[j.Name]
		if !ok {
			return nil, fmt.Errorf("wal: job %q has no placement in the checkpoint assignment", j.Name)
		}
		b = AppendPlaced(b, j, pl)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b, nil
}

// DecodeCheckpoint parses and validates a checkpoint image. It is
// strict — wrong magic, unknown version, CRC mismatch, out-of-order job
// names, or trailing bytes are all errors — and never panics on
// arbitrary input.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen+4 {
		return nil, fmt.Errorf("wal: checkpoint of %d bytes is too short", len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != checkpointVersion {
		return nil, fmt.Errorf("wal: unsupported checkpoint version %d", v)
	}
	body := data[:len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	r := NewReader(body[ckptHeaderLen:])
	ck := &Checkpoint{StartSeg: r.Uvarint()}
	shards := r.Count(1)
	if shards == 0 || shards > maxShards {
		r.Fail(fmt.Errorf("%d shard(s)", shards))
	}
	ck.ShardMachines = make([]int, shards)
	for i := range ck.ShardMachines {
		m := r.Uvarint()
		if m < 1 || m > 1<<32 {
			r.Fail(fmt.Errorf("shard %d with %d machines", i, m))
		}
		ck.ShardMachines[i] = int(m)
	}
	njobs := r.Count(MinPlacedLen)
	ck.Jobs = make([]jobs.Job, 0, njobs)
	ck.Assignment = make(jobs.Assignment, njobs)
	for i := 0; i < njobs; i++ {
		j, pl := r.Placed()
		if i > 0 && j.Name <= ck.Jobs[i-1].Name {
			r.Fail(fmt.Errorf("jobs out of canonical order at %q", j.Name))
		}
		ck.Jobs = append(ck.Jobs, j)
		ck.Assignment[j.Name] = pl
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	return ck, nil
}
