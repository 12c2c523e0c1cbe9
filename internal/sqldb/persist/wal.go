package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"justintime/internal/fault"
	"justintime/internal/sqldb"
)

// walMagic identifies a WAL file; the trailing byte is the format version.
var walMagic = []byte("JITWAL\x01")

// WAL record types (the payload's first byte, inside the frame).
const (
	walExec        uint8 = 1 // SQL text + bound parameters
	walInsertRows  uint8 = 2 // typed bulk load
	walCreateTable uint8 = 3 // typed table creation
	walCreateIndex uint8 = 4 // typed index creation
)

// SyncMode selects the WAL's durability/latency trade-off.
type SyncMode int

const (
	// SyncAlways fsyncs after every appended record: a mutation that
	// returned to the caller survives an OS crash or power loss. This is
	// the slow, safe default.
	SyncAlways SyncMode = iota
	// SyncBatched pushes every record to the kernel (the log is current
	// after a process crash or kill) but fsyncs only at checkpoints and on
	// close, batching the expensive flushes. An OS crash can lose the tail
	// written since the last fsync — never corrupt it, thanks to the
	// per-record checksums.
	SyncBatched
)

// ParseSyncMode maps the -wal-sync flag values onto a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "batched":
		return SyncBatched, nil
	default:
		return 0, fmt.Errorf("persist: unknown WAL sync mode %q (want always or batched)", s)
	}
}

func (m SyncMode) String() string {
	if m == SyncBatched {
		return "batched"
	}
	return "always"
}

var errWALClosed = errors.New("persist: WAL is closed")

// WAL is an append-only mutation log. It implements sqldb.MutationLogger,
// so attaching it via DB.SetLogger records every mutation applied after the
// attach; Replay applies a log back onto a database. Appends are invoked
// under the database's write lock, which makes the record order the exact
// serialization order of the writes.
type WAL struct {
	mu    sync.Mutex
	f     fault.File
	mode  SyncMode
	size  int64  // current valid length, including header
	epoch uint64 // checkpoint epoch carried in the file header
	// err is the first failed or short write since the last Reset. The
	// file may then end in part of a frame, so every later append, Sync
	// and Close reports it until Reset rewrites the log.
	err error
	// onAppend, when set, observes every appended record as the exact framed
	// bytes that landed in the file, with the epoch and the file offset the
	// frame starts at — the hook WAL shipping attaches to. Called in append
	// order under the WAL's lock, after the record is durable per the sync
	// mode.
	onAppend func(epoch uint64, off int64, frame []byte)
	onWrite  func(int)
	onFsync  func(time.Duration)
	closed   bool
}

// syncTimed fsyncs the log file, reporting the latency to the onFsync hook.
// Callers hold w.mu.
func (w *WAL) syncTimed() error {
	start := time.Now()
	err := w.f.Sync()
	if err == nil && w.onFsync != nil {
		w.onFsync(time.Since(start))
	}
	return err
}

// walHeaderLen is the file header: magic (8 bytes) + checkpoint epoch (u64).
const walHeaderLen = 16

// openWAL opens (or creates) the log at path, replays every intact record
// onto db, truncates a torn tail so the next append starts on a clean
// boundary, and returns the WAL positioned for appending. db must not have a
// logger attached while it replays.
//
// epoch is the checkpoint epoch of the snapshot the log extends. A log whose
// header carries a different epoch is stale — a crash interrupted a
// checkpoint after the new snapshot landed but before the log was reset —
// and its contents, already folded into the snapshot, are discarded instead
// of double-applied.
func openWAL(fsys fault.FS, path string, db *sqldb.DB, epoch uint64, mode SyncMode, onWrite func(int)) (w *WAL, replayed int, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: wal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()

	good, replayed, err := replayOnto(f, db, epoch)
	if err != nil {
		return nil, 0, err
	}
	if good == 0 {
		// Empty file, torn header, or a stale epoch: start fresh. Fsync the
		// directory too — the file may have just been created, and without
		// the directory entry on stable storage a power loss could drop the
		// whole log even though every record was fsynced.
		if err = writeWALHeader(f, epoch); err != nil {
			return nil, 0, err
		}
		if err = syncDir(fsys, filepath.Dir(path)); err != nil {
			return nil, 0, err
		}
		good = walHeaderLen
	} else if err = f.Truncate(good); err != nil {
		// Drop the torn tail (no-op when the file ends on a boundary).
		return nil, 0, fmt.Errorf("persist: wal: truncating torn tail: %w", err)
	}
	if _, err = f.Seek(good, io.SeekStart); err != nil {
		return nil, 0, err
	}
	return &WAL{
		f:       f,
		mode:    mode,
		size:    good,
		epoch:   epoch,
		onWrite: onWrite,
	}, replayed, nil
}

func writeWALHeader(f fault.File, epoch uint64) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], epoch)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// replayOnto reads the log from the start, applying every intact record to
// db. It returns the offset just past the last intact record (0 for an
// empty, headerless or stale-epoch file) and the number of records applied.
// Statement-level errors during replay are ignored by design: a logged
// statement either succeeded at origin or partially applied
// deterministically, so re-running it on the identical prior state
// reproduces the identical effect — and the identical error.
func replayOnto(f fault.File, db *sqldb.DB, epoch uint64) (good int64, replayed int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := fileReader(f, 1<<20)
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil // empty or torn before the header: treat as empty
	}
	if !bytes.Equal(hdr[:len(walMagic)], walMagic) {
		return 0, 0, fmt.Errorf("persist: not a WAL file (bad magic)")
	}
	if binary.LittleEndian.Uint64(hdr[len(walMagic):]) != epoch {
		return 0, 0, nil // stale epoch: snapshot already contains these records
	}
	good = walHeaderLen
	for {
		payload, ferr := readFrame(r)
		if ferr != nil {
			// io.EOF is a clean end; errTorn is the crash tail we tolerate.
			// Anything else is the device failing mid-read: surface it
			// instead of silently treating the log as shorter than it is.
			if errors.Is(ferr, io.EOF) || errors.Is(ferr, errTorn) {
				return good, replayed, nil
			}
			return 0, 0, fmt.Errorf("persist: wal read: %w", ferr)
		}
		if err := applyRecord(db, payload); err != nil {
			return 0, 0, err
		}
		good += int64(8 + len(payload))
		replayed++
	}
}

// applyRecord decodes one WAL payload and applies it to db. Only malformed
// records error; see replayOnto for why execution errors are tolerated.
func applyRecord(db *sqldb.DB, payload []byte) error {
	d := &dec{buf: payload}
	switch typ := d.u8(); typ {
	case walExec:
		sql := d.str()
		n := int(d.u32())
		if d.err != nil || n > maxRecord {
			return fmt.Errorf("persist: malformed exec record")
		}
		params := make([]sqldb.Value, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			params = append(params, d.value())
		}
		if d.err != nil {
			return d.err
		}
		_, _ = db.Exec(sql, params...)
		return nil
	case walInsertRows:
		table := d.str()
		rows := d.rows()
		if d.err != nil {
			return d.err
		}
		return db.InsertRows(table, rows)
	case walCreateTable:
		name := d.str()
		cols := d.cols()
		if d.err != nil {
			return d.err
		}
		return db.CreateTable(name, cols)
	case walCreateIndex:
		name, table, column := d.str(), d.str(), d.str()
		if d.err != nil {
			return d.err
		}
		return db.CreateIndex(name, table, column)
	default:
		return fmt.Errorf("persist: unknown WAL record type %d", typ)
	}
}

// append frames and writes one payload, honoring the sync mode.
func (w *WAL) append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.err != nil {
		return fmt.Errorf("persist: wal append: %w", w.err)
	}
	off := w.size
	// One write per record, so the kernel has it when append returns (a
	// killed process loses nothing); fsync per record only in SyncAlways.
	// The shipping hook sees these exact bytes (offset-addressed
	// replication needs them verbatim).
	frame := frameBytes(payload)
	n, err := w.f.Write(frame)
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		return fmt.Errorf("persist: wal append: %w", err)
	}
	if w.mode == SyncAlways {
		if err := w.syncTimed(); err != nil {
			return fmt.Errorf("persist: wal fsync: %w", err)
		}
	}
	w.size += int64(n)
	if w.onWrite != nil {
		w.onWrite(n)
	}
	if w.onAppend != nil {
		w.onAppend(w.epoch, off, frame)
	}
	return nil
}

// LogExec implements sqldb.MutationLogger.
func (w *WAL) LogExec(sql string, params []sqldb.Value) error {
	e := &enc{}
	e.u8(walExec)
	e.str(sql)
	e.u32(uint32(len(params)))
	for _, p := range params {
		e.value(p)
	}
	return w.append(e.buf)
}

// LogInsertRows implements sqldb.MutationLogger.
func (w *WAL) LogInsertRows(table string, rows [][]sqldb.Value) error {
	e := &enc{}
	e.u8(walInsertRows)
	e.str(table)
	e.rows(rows)
	return w.append(e.buf)
}

// LogCreateTable implements sqldb.MutationLogger.
func (w *WAL) LogCreateTable(name string, cols []sqldb.Column) error {
	e := &enc{}
	e.u8(walCreateTable)
	e.str(name)
	e.cols(cols)
	return w.append(e.buf)
}

// LogCreateIndex implements sqldb.MutationLogger.
func (w *WAL) LogCreateIndex(name, table, column string) error {
	e := &enc{}
	e.u8(walCreateIndex)
	e.str(name)
	e.str(table)
	e.str(column)
	return w.append(e.buf)
}

// Sync forces written records to stable storage (a batched-mode flush
// point).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.err != nil {
		return w.err
	}
	return w.syncTimed()
}

// Reset empties the log back to a bare header carrying the new checkpoint
// epoch, after its contents have been folded into a snapshot. Callers must
// guarantee no concurrent appends (the Store resets inside
// DB.CheckpointWith, which excludes all writers).
//
// A failed reset (say, disk full after the truncate) poisons the log: the
// file's shape is no longer known, so rather than appending at a stale
// offset — or under a stale epoch the next Open would discard as already
// checkpointed — the WAL closes itself and every later append reports the
// durability loss to its caller. The disk state stays consistent either
// way: the new snapshot is complete, and whatever half-reset log sits next
// to it is ignored on Open (torn or stale-epoch header).
func (w *WAL) Reset(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	w.err = nil // the header rewrite drops any partial frame
	if err := writeWALHeader(w.f, epoch); err != nil {
		return w.poisonLocked(err)
	}
	if _, err := w.f.Seek(walHeaderLen, io.SeekStart); err != nil {
		return w.poisonLocked(err)
	}
	w.size = walHeaderLen
	w.epoch = epoch
	return nil
}

// poisonLocked permanently closes a WAL whose on-disk shape is unknown,
// wrapping cause so the caller sees both the trigger and the consequence.
func (w *WAL) poisonLocked(cause error) error {
	w.closed = true
	_ = w.f.Close()
	return fmt.Errorf("persist: wal unusable after failed reset (further mutations will not be logged): %w", cause)
}

// Size returns the current log length in bytes, header included.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close fsyncs and closes the log file. Further appends error.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.err
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
