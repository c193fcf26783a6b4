// Command reallocd serves the repro reallocating scheduler over TCP as
// a multi-tenant front-end. Each tenant (named by the client's Hello
// frame) gets its own lazily created sharded Theorem 1 scheduler;
// each connection's reader serves the requests of every frame already
// buffered as one ApplyBatch and writes their acks in one write; a
// bounded per-tenant inflight budget sheds overload with explicit
// rejections instead of queueing.
//
// Usage:
//
//	reallocd -addr :7411 -shards 4 -machines 16
//	reallocd -addr :7411 -wal /var/lib/reallocd -fsync     # durable tenants
//	reallocd -addr :7411 -wal /var/lib/a -repl :7412       # primary, ships WAL
//	reallocd -addr :7413 -wal /var/lib/b -follow :7412 \
//	         -promote-after 2s                             # warm follower
//
// With -wal, each tenant logs to its own subdirectory and is recovered
// from it on its first connection after a restart.
//
// With -repl the daemon is a replication primary: followers connect to
// the -repl address, install each tenant's latest checkpoint, and then
// receive every group commit before its ack is released. On SIGTERM
// with a follower connected, the primary seals the log and hands the
// primary role over (the follower promotes with a bumped fencing
// epoch) instead of just draining.
//
// With -follow the daemon is a warm follower: it serves nothing until
// it is promoted — by the primary's handoff, or automatically once the
// primary has been unreachable for -promote-after — and then starts
// accepting clients on -addr with the warm schedulers, writing a
// machine-readable report to -failover-json if set.
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests finish,
// acks flush, tenant WALs close, then the process exits 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	realloc "repro"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7411", "listen address")
		shards       = flag.Int("shards", 4, "shards per tenant scheduler")
		machines     = flag.Int("machines", 16, "machines per tenant pool")
		inflight     = flag.Int("inflight", 1024, "per-tenant inflight admission budget")
		batch        = flag.Int("batch", 128, "max buffered requests a connection serves as one ApplyBatch")
		maxTenants   = flag.Int("max-tenants", 0, "tenant limit (0 = unbounded)")
		walRoot      = flag.String("wal", "", "WAL root directory (empty = in-memory tenants)")
		fsync        = flag.Bool("fsync", false, "fsync each WAL group commit (requires -wal)")
		replAddr     = flag.String("repl", "", "replication listen address: ship the WAL to followers (requires -wal)")
		follow       = flag.String("follow", "", "primary replication address: run as a warm follower (requires -wal)")
		promoteAfter = flag.Duration("promote-after", 0, "with -follow: self-promote after the primary is unreachable this long (0 = explicit handoff only)")
		failoverJSON = flag.String("failover-json", "", "with -follow: write a promotion report to this file")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "reallocd: ", log.LstdFlags|log.Lmicroseconds)

	if *replAddr != "" && *walRoot == "" {
		logger.Fatalf("-repl requires -wal: followers install checkpoints and segments from the WAL directory")
	}
	if *follow != "" && *walRoot == "" {
		logger.Fatalf("-follow requires -wal: the follower mirrors the primary's WAL there")
	}
	if *follow != "" && *replAddr != "" {
		logger.Fatalf("-follow and -repl are mutually exclusive (a promoted follower restarts as a primary to ship)")
	}

	baseOpts := func() []realloc.Option {
		return []realloc.Option{
			realloc.WithShards(*shards),
			realloc.WithMachines(*machines),
		}
	}

	if *follow != "" {
		runFollower(logger, *follow, *addr, *walRoot, *promoteAfter, *failoverJSON, *fsync,
			*inflight, *batch, *maxTenants, baseOpts)
		return
	}

	// Primary (or standalone) mode. With -repl, every tenant WAL is
	// exported to the replication source BEFORE it is opened, so the
	// very first observed byte (the segment header) ships too.
	var src *repl.Source
	fenced := make(chan struct{})
	if *replAddr != "" {
		epoch, err := repl.ReadEpoch(*walRoot)
		if err != nil {
			logger.Fatalf("reading fencing epoch: %v", err)
		}
		src = repl.NewSource(repl.SourceConfig{
			Epoch:    epoch,
			Logf:     logger.Printf,
			OnFenced: func() { close(fenced) },
		})
		raddr, err := src.Listen(*replAddr)
		if err != nil {
			logger.Fatalf("replication listen %s: %v", *replAddr, err)
		}
		logger.Printf("replicating on %s (fencing epoch %d)", raddr, epoch)
	}

	cfg := server.Config{
		NewScheduler: func(tenant string) (*shard.Scheduler, error) {
			if *walRoot == "" {
				logger.Printf("tenant %q: created (in-memory)", tenant)
				return realloc.NewSharded(baseOpts()...), nil
			}
			return openTenant(logger, *walRoot, tenant, *fsync, src, baseOpts())
		},
		MaxInflight: *inflight,
		BatchLimit:  *batch,
		MaxTenants:  *maxTenants,
		Logf:        logger.Printf,
	}

	s, err := server.Listen(*addr, cfg)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	logger.Printf("listening on %s (shards=%d machines=%d inflight=%d batch=%d wal=%q)",
		s.Addr(), *shards, *machines, *inflight, *batch, *walRoot)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var got os.Signal
	select {
	case got = <-sig:
	case <-fenced:
		// A follower promoted past this primary (it was presumed dead
		// behind a partition and a replacement is serving). Seal the
		// write path immediately: any write acked from here on would
		// diverge from the new epoch and be lost.
		logger.Printf("FENCED: a follower promoted past this primary; sealing the write path")
		if err := s.Close(); err != nil {
			logger.Fatalf("close after fence: %v", err)
		}
		src.Close()
		logger.Printf("deposed; bye")
		return
	}

	if src != nil {
		if total, warm := src.Followers(); total > 0 {
			logger.Printf("%s: handing off to a follower (%d connected, %d warm)...", got, total, warm)
			epoch, err := s.Handoff(src, fmt.Sprintf("%s handoff", got))
			if err != nil {
				logger.Printf("handoff failed (%v); draining instead", err)
			} else {
				logger.Printf("handed off at epoch %d; bye", epoch)
				src.Close()
				return
			}
		}
	}
	logger.Printf("%s: draining...", got)
	if err := s.Close(); err != nil {
		logger.Fatalf("close: %v", err)
	}
	if src != nil {
		src.Close()
	}
	logger.Printf("drained; bye")
}

// openTenant recovers tenant's durable scheduler from its directory
// under walRoot, or creates it there: OpenRecovered handles both a
// fresh directory and an existing log (recover, replay, and continue
// appending). A promotion tombstone means the directory is an
// incomplete prefix of the old primary's WAL: recovering it would
// silently serve stale state, so it is refused loudly instead. With a
// replication source (the primary's -repl), the WAL is exported to it
// BEFORE it is opened, so the very first observed byte ships too.
func openTenant(logger *log.Logger, walRoot, tenant string, fsync bool, src *repl.Source, opts []realloc.Option) (*shard.Scheduler, error) {
	dir := filepath.Join(walRoot, repl.TenantDir(tenant))
	if reason, ok := repl.Discarded(dir); ok {
		return nil, fmt.Errorf("tenant %q: mirror at %s was discarded at promotion (%s); refusing to recover an incomplete WAL — restore it from a live replica or remove the directory to start empty", tenant, dir, reason)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if fsync {
		opts = append(opts, realloc.WithWALFsync())
	}
	if src != nil {
		opts = append(opts, realloc.WithWALObserver(src.Export(tenant, dir)))
	}
	s, rec, err := realloc.OpenRecovered(dir, opts...)
	if err != nil {
		return nil, fmt.Errorf("recovering tenant %q from %s: %w", tenant, dir, err)
	}
	logRecovery(logger, tenant, dir, rec)
	return s, nil
}

// logRecovery reports every Recovery field: what seeded the scheduler,
// how much history was replayed (records vs the requests inside them,
// resizes included), how many replay rejections were counted (requests
// the original run also rejected), and how many torn-tail bytes were
// truncated.
func logRecovery(logger *log.Logger, tenant, dir string, rec *realloc.Recovery) {
	logger.Printf("tenant %q: wal=%s checkpoint=%v checkpoint_jobs=%d replayed_records=%d replayed_requests=%d replayed_resizes=%d replay_failures=%d truncated_bytes=%d",
		tenant, dir, rec.CheckpointLoaded, rec.CheckpointJobs,
		rec.RecordsReplayed, rec.RequestsReplayed, rec.ResizesReplayed,
		rec.ReplayFailures, rec.TruncatedBytes)
}

// runFollower is the -follow mode: mirror the primary until promoted,
// then serve the warm schedulers on addr.
func runFollower(logger *log.Logger, primary, addr, walRoot string, promoteAfter time.Duration,
	failoverJSON string, fsync bool, inflight, batch, maxTenants int, baseOpts func() []realloc.Option) {
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary: primary,
		Dir:     walRoot,
		NewScheduler: func(tenant string, ck *wal.Checkpoint) (*shard.Scheduler, error) {
			return realloc.NewShardedFromCheckpoint(ck, baseOpts()...)
		},
		Fsync:        fsync,
		PromoteAfter: promoteAfter,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Fatalf("follower: %v", err)
	}
	logger.Printf("following %s (wal=%s promote-after=%v)", primary, walRoot, promoteAfter)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		got := <-sig
		select {
		case <-fol.Promoted():
			// Promotion already happened: hand the signal to the
			// serving loop's drain below.
			sig <- got
		default:
			logger.Printf("%s before promotion: stopping follower", got)
			fol.Close()
			os.Exit(0)
		}
	}()

	if err := fol.Run(); err != nil {
		logger.Fatalf("follower: %v", err)
	}
	select {
	case <-fol.Promoted():
	default:
		logger.Printf("follower stopped without promotion; bye")
		return
	}

	stats := fol.Stats()
	logger.Printf("promoted: epoch=%d tenants=%d records=%d requests=%d failures=%d promote_ms=%.1f reason=%q",
		stats.Epoch, stats.Tenants, stats.Records, stats.Requests, stats.Failures, stats.PromoteMS, stats.Reason)
	if failoverJSON != "" {
		writeFailoverReport(logger, failoverJSON, stats)
	}

	cfg := server.Config{
		NewScheduler: func(tenant string) (*shard.Scheduler, error) {
			if s := fol.Adopt(tenant); s != nil {
				logger.Printf("tenant %q: adopted warm from replication", tenant)
				return s, nil
			}
			// Not replicated (or created after promotion): recover
			// from (or create under) the mirror root like a primary.
			return openTenant(logger, walRoot, tenant, fsync, nil, baseOpts())
		},
		MaxInflight: inflight,
		BatchLimit:  batch,
		MaxTenants:  maxTenants,
		Logf:        logger.Printf,
	}
	s, err := server.Listen(addr, cfg)
	if err != nil {
		logger.Fatalf("listen %s: %v", addr, err)
	}
	logger.Printf("serving promoted state on %s (epoch %d)", s.Addr(), stats.Epoch)

	got := <-sig
	logger.Printf("%s: draining...", got)
	if err := s.Close(); err != nil {
		logger.Fatalf("close: %v", err)
	}
	logger.Printf("drained; bye")
}

// failoverReport is the machine-readable promotion record CI asserts
// against (field names are part of the smoke-test contract).
type failoverReport struct {
	Epoch     uint64  `json:"epoch"`
	Tenants   int     `json:"tenants"`
	Records   int     `json:"records_replayed"`
	Requests  int     `json:"requests_replayed"`
	Failures  int     `json:"replay_failures"`
	PromoteMS float64 `json:"promote_ms"`
	Reason    string  `json:"reason"`
}

func writeFailoverReport(logger *log.Logger, path string, st repl.FollowerStats) {
	rep := failoverReport{
		Epoch:     st.Epoch,
		Tenants:   st.Tenants,
		Records:   st.Records,
		Requests:  st.Requests,
		Failures:  st.Failures,
		PromoteMS: st.PromoteMS,
		Reason:    st.Reason,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		logger.Printf("failover report: %v", err)
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		logger.Printf("failover report: %v", err)
	}
}
