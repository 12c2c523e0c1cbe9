package persist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"justintime/internal/fault"
	"justintime/internal/obs"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

const (
	// SnapshotFile is the snapshot's file name inside a store directory.
	SnapshotFile = "snapshot.db"
	// WALFile is the write-ahead log's file name inside a store directory.
	WALFile = "wal.log"
)

// Options tunes a Store.
type Options struct {
	// Sync selects the WAL fsync policy (default SyncAlways).
	Sync SyncMode
	// OnWALWrite, when set, observes every appended WAL record's framed
	// size in bytes — the hook metrics counters attach to.
	OnWALWrite func(bytes int)
	// OnFsync, when set, observes the latency of every WAL fsync (per-record
	// in SyncAlways mode, per-flush-point in SyncBatched) — the hook the
	// /metrics fsync histogram attaches to.
	OnFsync func(d time.Duration)
	// OnAppend, when set, observes every appended WAL record as the exact
	// framed bytes written to the file, with the checkpoint epoch and the
	// file offset the frame starts at. Called in append order under the
	// WAL's lock — the hook replication shipping attaches to.
	OnAppend func(epoch uint64, off int64, frame []byte)
	// Pool, when set, rehydrates paged tables by attaching their page files
	// to this buffer pool instead of decoding every row: a cold open costs
	// only the snapshot's schema records, and rows fault in page by page as
	// queries touch them. Without a pool, paged snapshots still open — the
	// rows are materialized into the default slice store.
	Pool *pager.Pool
	// FS is the filesystem every snapshot, WAL and page file operation goes
	// through. Nil means the real one (fault.OS); tests and the chaos
	// harness install a fault.Injector here.
	FS fault.FS
}

// Store is the durable home of one database: a snapshot of its state at the
// last checkpoint plus a WAL of every mutation since, together under one
// directory. While open, the store is attached to the database as its
// mutation logger; Checkpoint folds the WAL into a fresh snapshot; Close
// detaches and releases the files.
type Store struct {
	dir string
	fs  fault.FS

	mu     sync.Mutex
	db     *sqldb.DB
	wal    *WAL
	epoch  uint64 // checkpoint generation of the current snapshot + WAL pair
	closed bool
}

// Create initializes dir as the durable home of db: it snapshots db's
// current state and attaches an empty WAL, so every later mutation is
// logged. Any stale temporary files in dir are removed first. Paged tables
// checkpoint their page files alongside the snapshot (under the same
// exclusive lock), so Create is their first durability point too.
func Create(dir string, db *sqldb.DB, opts Options) (*Store, error) {
	fsys := fault.Of(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	removeTempFiles(fsys, dir)
	const firstEpoch = 1
	if err := db.CheckpointWith(func(d *sqldb.Dump) error {
		return writeState(fsys, dir, d, firstEpoch)
	}); err != nil {
		return nil, err
	}
	removeStalePageFiles(fsys, dir, firstEpoch)
	// A fresh store must not inherit records from a previous life of the
	// directory: drop any existing WAL before opening.
	if err := fsys.Remove(filepath.Join(dir, WALFile)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return attach(fsys, dir, db, firstEpoch, opts)
}

// writeState persists one consistent state under the DB's exclusive lock:
// every paged table's pages first (to epoch-named page files), then the
// snapshot referencing them. The snapshot's atomic rename is the commit
// point — a crash before it leaves the previous epoch's files authoritative.
func writeState(fsys fault.FS, dir string, d *sqldb.Dump, epoch uint64) error {
	for i := range d.Tables {
		td := &d.Tables[i]
		if td.Paged == nil {
			continue
		}
		if err := td.Paged.CheckpointTo(filepath.Join(dir, PagesFileName(td.Name, epoch))); err != nil {
			return err
		}
	}
	return writeSnapshotFS(fsys, filepath.Join(dir, SnapshotFile), d, epoch)
}

// removeStalePageFiles deletes pages-*.db files of any epoch other than
// keepEpoch — the old generation after a successful checkpoint, or leftovers
// from a checkpoint that crashed between writing page files and the
// snapshot rename.
func removeStalePageFiles(fsys fault.FS, dir string, keepEpoch uint64) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	suffix := fmt.Sprintf("-%d.db", keepEpoch)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "pages-") || !strings.HasSuffix(name, ".db") {
			continue
		}
		if !strings.HasSuffix(name, suffix) {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// Open loads the database persisted in dir: the snapshot, then every intact
// WAL record of the snapshot's epoch on top (a torn final record — the
// signature of a crash mid-append — is dropped and truncated away; a
// stale-epoch WAL left by a crash mid-checkpoint is discarded whole). The
// returned database has the store attached as its logger, so mutations keep
// accruing to the WAL.
func Open(dir string, opts Options) (*sqldb.DB, *Store, error) {
	fsys := fault.Of(opts.FS)
	removeTempFiles(fsys, dir)
	dump, refs, epoch, err := readSnapshotRefs(fsys, filepath.Join(dir, SnapshotFile))
	if err != nil {
		return nil, nil, err
	}
	removeStalePageFiles(fsys, dir, epoch)
	for i, ref := range refs {
		td := &dump.Tables[ref.tableIndex]
		if opts.Pool == nil {
			// No pool on this host: materialize the pages into the slice
			// store so the wire format stays readable everywhere.
			if td.Rows, err = readPagedRows(fsys, filepath.Join(dir, ref.file), ref.pageRows); err != nil {
				return nil, nil, err
			}
			continue
		}
		// Attach the checkpointed page file: no row decode here at all. The
		// spill is volatile by design (WAL replay regenerates any
		// post-checkpoint state), so a leftover from a previous life is
		// removed, not read.
		spill := filepath.Join(dir, SpillFileName(td.Name))
		_ = fsys.Remove(spill)
		if td.Paged, err = sqldb.OpenPagedTableFS(fsys, opts.Pool, filepath.Join(dir, ref.file), spill, ref.pageRows); err != nil {
			for _, prev := range refs[:i] {
				dump.Tables[prev.tableIndex].Paged.Close()
			}
			return nil, nil, err
		}
	}
	db, err := sqldb.NewFromDump(dump) // owns the paged stores from here on
	if err != nil {
		return nil, nil, err
	}
	st, err := attach(fsys, dir, db, epoch, opts)
	if err != nil {
		db.ClosePagedStores()
		return nil, nil, err
	}
	return db, st, nil
}

// SpillFileName is the sibling file receiving a paged table's dirty-page
// writebacks between checkpoints. It carries no epoch: its contents are
// meaningless across a restart.
func SpillFileName(table string) string { return "spill-" + table + ".db" }

// attach opens the WAL (replaying it onto db) and wires the store up as the
// database's mutation logger.
func attach(fsys fault.FS, dir string, db *sqldb.DB, epoch uint64, opts Options) (*Store, error) {
	wal, _, err := openWAL(fsys, filepath.Join(dir, WALFile), db, epoch, opts.Sync, opts.OnWALWrite)
	if err != nil {
		return nil, err
	}
	wal.onFsync = opts.OnFsync
	wal.onAppend = opts.OnAppend
	st := &Store{dir: dir, fs: fsys, db: db, wal: wal, epoch: epoch}
	db.SetLogger(wal)
	return st, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// WALSize returns the WAL's current length in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// Dirty reports whether any mutation has been logged since the last
// checkpoint (or since Create/Open). A clean store's snapshot already equals
// the live database, so callers evicting a read-only session can skip the
// snapshot write + fsync entirely.
func (s *Store) Dirty() bool { return s.wal.Size() > walHeaderLen }

// Sync forces any batched WAL records to stable storage.
func (s *Store) Sync() error { return s.wal.Sync() }

// Checkpoint folds the WAL into a fresh snapshot: under the database's
// exclusive lock (no mutation, and therefore no WAL append, can interleave)
// it writes the current state as the snapshot of the next epoch, then resets
// the WAL to a bare header carrying that epoch. Every crash window is
// covered: before the snapshot rename, the old snapshot + same-epoch WAL
// replay as before; between rename and reset, the new snapshot sees the old
// WAL's epoch as stale and discards it (its effects are inside the
// snapshot); after the reset, the pair is simply the new epoch.
func (s *Store) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

// CheckpointCtx is Checkpoint with trace propagation: when ctx carries an
// active obs.Span, the snapshot write and the WAL reset land on the trace as
// timed child spans, with the pre-fold WAL size as an attribute.
func (s *Store) CheckpointCtx(ctx context.Context) error {
	_, span := obs.Start(ctx, "persist.checkpoint")
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: store is closed")
	}
	span.SetAttrInt("wal_bytes", s.wal.Size()-walHeaderLen)
	next := s.epoch + 1
	err := s.db.CheckpointWith(func(d *sqldb.Dump) error {
		snapStart := time.Now()
		if err := writeState(s.fs, s.dir, d, next); err != nil {
			return err
		}
		span.Event("snapshot.write", time.Since(snapStart))
		resetStart := time.Now()
		if err := s.wal.Reset(next); err != nil {
			return err
		}
		span.Event("wal.reset", time.Since(resetStart))
		return nil
	})
	if err == nil {
		s.epoch = next
		removeStalePageFiles(s.fs, s.dir, next)
	}
	return err
}

// Close detaches the store from its database and closes the WAL. The files
// stay on disk for a later Open; pass through Checkpoint first to fold the
// WAL down. Mutations applied after Close are not persisted (the logger is
// detached), so callers must stop writers first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.db.SetLogger(nil)
	err := s.wal.Close()
	// Release paged stores (pool frames, page/spill descriptors). A query
	// racing this close fails with a clean "file is closed" error.
	if cerr := s.db.ClosePagedStores(); err == nil {
		err = cerr
	}
	return err
}

// Remove deletes a store directory and everything in it. Use for session
// destruction; the store must be closed first if it was open.
func Remove(dir string) error {
	return os.RemoveAll(dir)
}

// removeTempFiles clears stale atomic-write leftovers (*.tmp) from dir, so
// a crash between temp-write and rename never accumulates orphans.
func removeTempFiles(fsys fault.FS, dir string) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			_ = fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
