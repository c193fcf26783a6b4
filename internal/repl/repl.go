// Package repl ships the write-ahead log to warm followers and hands
// the primary role over on failure.
//
// The primary side is a Source: each tenant's WAL registers a shipping
// feed (Export returns the wal.Options.Observer callback), and every
// connected follower receives, per tenant, an install marker
// (KindCheckpointInstall, its data empty), the segment files from the
// newest checkpoint record on (KindSegmentChunk; wal.ReplaySegments
// picks them, so the image travels as segment bytes), an
// end-of-snapshot marker (KindInstalled), and from then on every group
// commit the moment it is durable (KindTail, a later checkpoint
// included), interleaved with KindPing heartbeats so an idle primary
// is distinguishable from a wedged one. Because the WAL observer runs
// after the write and before any Wait of the group returns, a write
// acked to a client has always been handed to the shipper first: for a
// follower that has finished installing, acked ⇒ shipped.
//
// The follower side is a Follower: it dials the primary, mirrors the
// shipped segment bytes to its own WAL directory, builds each tenant's
// warm shard.Scheduler at the first complete record (from its image
// when that record is a checkpoint; built by the caller, normally via
// realloc.NewShardedFromCheckpoint), and replays every later record
// through the normal admission paths with logging off — the same
// replay discipline as realloc.OpenRecovered. A checkpoint reaching a
// built scheduler is mirrored, not replayed: it images state the
// scheduler already holds. Promotion (explicit KindPromote from a
// sealing primary, PromoteNow, or a primary-loss timeout keyed off the
// last frame received) persists the new fencing epoch, opens the
// mirrored WALs, and attaches them, leaving fully warm schedulers ready
// to serve. A tenant still
// installing at promotion is discarded and its mirror directory
// tombstoned (MarkDiscarded), so no recovery path can later mistake
// the incomplete mirror for a real WAL.
//
// Fencing follows the rule documented with the wire replication kinds:
// a follower promotes to epoch max(seen)+1 and persists it before
// accepting writes; a Source whose epoch is below a connecting
// follower's knows it has been deposed and refuses with CodeFenced
// (surfacing it through Fenced and SourceConfig.OnFenced). After a
// unilateral promotion the new primary dials the old one with the new
// epoch until the fence is acknowledged; the divergence window this
// covers is documented in the README.
package repl

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// TenantDir maps a tenant name to a filesystem-safe directory name:
// ASCII letters, digits, '-', '_' and '.' pass through, everything
// else is %XX-escaped. The mapping is injective, so two tenants never
// share a WAL directory. The primary (cmd/reallocd) and the follower
// use the same mapping, which keeps their directory layouts
// comparable.
func TenantDir(tenant string) string {
	var b strings.Builder
	for i := 0; i < len(tenant); i++ {
		c := tenant[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// epochFile is the name of the fencing-epoch file under a replication
// root directory.
const epochFile = "EPOCH"

// discardedFile marks a tenant mirror directory whose install never
// completed when its follower promoted: the bytes under it are an
// incomplete, never-synced prefix of the old primary's WAL and must
// not be recovered from.
const discardedFile = "DISCARDED"

// MarkDiscarded durably drops a promotion tombstone into a tenant
// mirror directory. Recovery paths must check Discarded before opening
// such a directory as a WAL: recovering an incomplete mirror would
// silently serve stale state, including acked writes the mirror never
// received.
func MarkDiscarded(dir, reason string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFileSync(filepath.Join(dir, discardedFile), []byte(reason+"\n"))
}

// Discarded reports whether dir carries a promotion tombstone, and the
// reason recorded when it was dropped.
func Discarded(dir string) (reason string, ok bool) {
	data, err := os.ReadFile(filepath.Join(dir, discardedFile))
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(data)), true
}

// ReadEpoch returns the fencing epoch persisted under root, or 0 when
// none has ever been written (a first-generation primary).
func ReadEpoch(root string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(root, epochFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: corrupt epoch file %s: %w", filepath.Join(root, epochFile), err)
	}
	return n, nil
}

// WriteEpoch durably persists the fencing epoch under root
// (write-to-temp, fsync, rename, fsync dir). Promotion calls this
// BEFORE the follower starts accepting writes — that ordering is what
// makes the epoch a fence.
func WriteEpoch(root string, epoch uint64) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	return writeFileSync(filepath.Join(root, epochFile), []byte(strconv.FormatUint(epoch, 10)+"\n"))
}

// writeFileSync replaces path with data durably: it writes a temp file
// beside path, fsyncs and closes it, renames it over path, and syncs
// the directory (best-effort: not every platform can sync one). On
// failure the temp file is removed and path is left as it was.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir best-effort fsyncs a directory, so the entries created or
// removed in it are durable (not every platform can sync one).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
