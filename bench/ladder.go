package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	realloc "repro"
	"repro/client"
	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The ladder replays one stream, one request in flight, through each
// height of the stack. The quotient of two neighbouring rungs is the tax
// of the layer between them: sharding, durability, network, replication.
const (
	ladderTarget   = 2000
	ladderRequests = 20000
	ladderTenant   = "ladder"
)

// ladder measures the five rungs and the four taxes. A rung is the
// median call→return time of a request, so that one stall does not move
// it.
func (r *run) ladder() (map[string]float64, error) {
	st, err := churnStream(subSeed(r.seed, 1<<32), poolMachines, ladderTarget, ladderRequests, "")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.tmp, "ladder")

	// climb preloads one rung and times the measured requests on it.
	climb := func(apply func(jobs.Request) error) float64 {
		r.attempted += len(st.preload) + len(st.reqs)
		for _, rq := range st.preload {
			if apply(rq) != nil {
				r.failed++
			}
		}
		lat := make([]int64, len(st.reqs))
		for i, rq := range st.reqs {
			q0 := time.Now()
			err := apply(rq)
			lat[i] = int64(time.Since(q0))
			if err != nil {
				r.failed++
			}
		}
		return float64(quantile(sortedCopy(lat), 0.50))
	}

	v := make(map[string]float64)
	stack := realloc.New(realloc.WithMachines(poolMachines))
	v["ladder.stack_ns"] = climb(func(rq jobs.Request) error { _, err := sched.Apply(stack, rq); return err })

	sh := realloc.NewSharded(poolOptions()...)
	v["ladder.shard_ns"] = climb(func(rq jobs.Request) error { _, err := sh.Apply(rq); return err })
	sh.Close()

	shw := realloc.NewSharded(append(poolOptions(), realloc.WithWAL(filepath.Join(dir, "shard_wal")))...)
	v["ladder.shard_wal_ns"] = climb(func(rq jobs.Request) error { _, err := shw.Apply(rq); return err })
	shw.Close()

	for _, rung := range []struct {
		name      string
		replicate bool
	}{{"ladder.serve_ns", false}, {"ladder.serve_repl_ns", true}} {
		ns, err := servedRung(filepath.Join(dir, rung.name), rung.replicate, climb)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rung.name, err)
		}
		v[rung.name] = ns
	}
	v["server.ping_rtt_us"] = v["ladder.serve_ns"] / 1e3
	v["tax.shard_ratio"] = div(v["ladder.shard_ns"], v["ladder.stack_ns"])
	v["tax.wal_ratio"] = div(v["ladder.shard_wal_ns"], v["ladder.shard_ns"])
	v["tax.serve_ratio"] = div(v["ladder.serve_ns"], v["ladder.shard_wal_ns"])
	v["tax.repl_ratio"] = div(v["ladder.serve_repl_ns"], v["ladder.serve_ns"])

	if r.w.usesWAL {
		if v["wal.sync_append_ns"], err = walAppendNs(filepath.Join(dir, "append"), st.reqs); err != nil {
			return nil, err
		}
	}
	if r.w.usesWire {
		wireCodec(st.reqs, v)
	}
	return v, nil
}

// servedRung climbs the daemon composition with one synchronous client.
func servedRung(dir string, replicate bool, climb func(func(jobs.Request) error) float64) (float64, error) {
	p, err := startPrimary(nil, filepath.Join(dir, "primary"), replicate)
	if err != nil {
		return 0, err
	}
	defer p.close()
	c, err := client.Dial(p.addr, ladderTenant)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if replicate {
		fol, err := startFollower(p, filepath.Join(dir, "follower"))
		if err != nil {
			return 0, err
		}
		defer fol.stop()
		if err := fol.waitWarm(1, 0); err != nil {
			return 0, err
		}
	}
	return climb(c.Submit), nil
}

// walAppendNs is the median time of one synchronous Log.Append of one of
// the workload's own request records: a group commit of one.
func walAppendNs(dir string, reqs []jobs.Request) (float64, error) {
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	lat := make([]int64, min(len(reqs), 4096))
	for i := range lat {
		q0 := time.Now()
		if err := log.Append(wal.RequestRecord(reqs[i])); err != nil {
			return 0, err
		}
		lat[i] = int64(time.Since(q0))
	}
	return float64(quantile(sortedCopy(lat), 0.50)), nil
}

// wireCodec times AppendFrame and DecodePayload on Submit frames of the
// workload's own requests, and counts DecodePayload's allocations.
func wireCodec(reqs []jobs.Request, v map[string]float64) {
	const frameHeader = 8 // u32 length + u32 CRC, see wire.AppendFrame
	frames := make([][]byte, min(len(reqs), 4096))
	var buf []byte
	encode := func(i int) {
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1), Req: reqs[i], DeadlineUS: uint64(openDeadline / time.Microsecond)}
		buf, _ = wire.AppendFrame(buf[:0], &f) // a Submit frame of a generated request always encodes
	}
	for i := range frames {
		encode(i)
		frames[i] = append([]byte(nil), buf...)
	}
	// The copies above are the benchmark's, so encoding is timed alone.
	q0 := time.Now()
	for i := range frames {
		encode(i)
	}
	v["wire.encode_ns_per_frame"] = float64(time.Since(q0)) / float64(len(frames))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q0 = time.Now()
	for _, b := range frames {
		if _, err := wire.DecodePayload(b[frameHeader:]); err != nil {
			panic(fmt.Sprintf("bench: decoding a frame this function encoded: %v", err))
		}
	}
	v["wire.decode_ns_per_frame"] = float64(time.Since(q0)) / float64(len(frames))
	runtime.ReadMemStats(&after)
	v["wire.decode_allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / float64(len(frames))
}
