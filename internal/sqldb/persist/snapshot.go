package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"justintime/internal/fault"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

// ErrCorrupt marks structural damage in a snapshot or page file — a failed
// checksum, bad magic, torn record or undecodable row — as opposed to a
// transient I/O error. The server quarantines a session whose store is
// corrupt; it retries one whose device merely errored.
var ErrCorrupt = errors.New("persist: corrupt store")

// IsCorrupt reports whether err is structural corruption in a session's
// durable state (snapshot, WAL header, or page file).
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, pager.ErrCorrupt)
}

// snapshotMagic identifies a snapshot file; the trailing byte is the format
// version.
var snapshotMagic = []byte("JITSNAP\x01")

// Snapshot record types.
const (
	recTable uint8 = 1 // one whole table: schema + rows
	recIndex uint8 = 2 // one secondary index declaration
	recEnd   uint8 = 3 // completeness marker; a snapshot without one is invalid
	// recPagedTable carries a paged table by reference: schema, the sibling
	// page file's name, and the page directory (rows per page). The rows
	// themselves live in the page file, so rehydrating attaches the file to
	// the buffer pool instead of decoding the whole table.
	recPagedTable uint8 = 4
	// recStats carried one index's planner statistics in older snapshots.
	// The planner keeps no statistics, so the record is never written, and
	// a reader skips it.
	recStats uint8 = 5
)

// PagesFileName is the sibling file holding a paged table's checkpointed
// pages for one epoch. Epoch-suffixing mirrors the snapshot protocol: a
// checkpoint writes the next epoch's page files before the snapshot rename
// commits to them, and stale epochs are garbage-collected afterwards.
func PagesFileName(table string, epoch uint64) string {
	return fmt.Sprintf("pages-%s-%d.db", table, epoch)
}

// pagedTableRef records where a recPagedTable's rows live; tableIndex is the
// table's position in the decoded Dump (whose Rows are left nil).
type pagedTableRef struct {
	tableIndex int
	file       string
	pageRows   []int
}

// WriteSnapshot serializes a structural dump to path atomically: the bytes
// land in a sibling .tmp file which is fsynced and renamed over path, so a
// crash at any point leaves either the old snapshot or the new one — never a
// half-written file. The containing directory is fsynced after the rename so
// the rename itself is durable.
//
// epoch is the checkpoint generation this snapshot represents; a WAL is only
// replayed on top of the snapshot carrying the same epoch (see Store), which
// is what makes the snapshot-then-reset checkpoint sequence crash-safe: a
// crash between the two leaves a new-epoch snapshot and an old-epoch WAL,
// and the stale WAL — whose effects the snapshot already contains — is
// discarded instead of double-applied.
func WriteSnapshot(path string, d *sqldb.Dump, epoch uint64) (err error) {
	return writeSnapshotFS(fault.OS, path, d, epoch)
}

// writeSnapshotFS is WriteSnapshot on an injectable filesystem.
func writeSnapshotFS(fsys fault.FS, path string, d *sqldb.Dump, epoch uint64) (err error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp) // never leave an orphaned temp file behind
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err = w.Write(snapshotMagic); err != nil {
		return err
	}
	var epochBuf [8]byte
	binary.LittleEndian.PutUint64(epochBuf[:], epoch)
	if _, err = w.Write(epochBuf[:]); err != nil {
		return err
	}
	for _, td := range d.Tables {
		e := &enc{}
		if td.Paged != nil {
			// The pages were checkpointed to the epoch's page file just
			// before this call (see Store.writeState); the snapshot records
			// only the reference and the page directory.
			e.u8(recPagedTable)
			e.str(td.Name)
			e.cols(td.Cols)
			e.str(PagesFileName(td.Name, epoch))
			pageRows := td.Paged.PageRows()
			e.u32(uint32(len(pageRows)))
			for _, n := range pageRows {
				e.u32(uint32(n))
			}
		} else {
			e.u8(recTable)
			e.str(td.Name)
			e.cols(td.Cols)
			e.rows(td.Rows)
		}
		if _, err = writeFrame(w, e.buf); err != nil {
			return err
		}
	}
	for _, ix := range d.Indexes {
		e := &enc{}
		e.u8(recIndex)
		e.str(ix.Name)
		e.str(ix.Table)
		e.str(ix.Column)
		if _, err = writeFrame(w, e.buf); err != nil {
			return err
		}
	}
	if _, err = writeFrame(w, []byte{recEnd}); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(fsys, filepath.Dir(path))
}

// ReadSnapshot loads a snapshot written by WriteSnapshot, returning the dump
// and its checkpoint epoch. Because snapshots are replaced atomically, any
// damage (bad magic, torn record, missing end marker) is a hard error, not a
// tolerated tail. Paged tables are materialized into plain rows from their
// sibling page files — the wire format stays fully readable without a buffer
// pool (Store.Open with a pool attaches the page files instead).
func ReadSnapshot(path string) (*sqldb.Dump, uint64, error) {
	d, refs, epoch, err := readSnapshotRefs(fault.OS, path)
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Dir(path)
	for _, ref := range refs {
		rows, err := readPagedRows(fault.OS, filepath.Join(dir, ref.file), ref.pageRows)
		if err != nil {
			return nil, 0, err
		}
		d.Tables[ref.tableIndex].Rows = rows
	}
	return d, epoch, nil
}

// readSnapshotRefs decodes a snapshot without touching page files: paged
// tables come back with nil Rows plus a pagedTableRef locating their pages.
func readSnapshotRefs(fsys fault.FS, path string) (*sqldb.Dump, []pagedTableRef, uint64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	r := fileReader(f, 1<<16)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, snapshotMagic) {
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, 0, fmt.Errorf("persist: %s: snapshot header: %w", path, err)
		}
		return nil, nil, 0, fmt.Errorf("persist: %s: not a snapshot file (bad magic): %w", path, ErrCorrupt)
	}
	var epochBuf [8]byte
	if _, err := io.ReadFull(r, epochBuf[:]); err != nil {
		return nil, nil, 0, fmt.Errorf("persist: %s: truncated snapshot header: %w", path, ErrCorrupt)
	}
	epoch := binary.LittleEndian.Uint64(epochBuf[:])
	d := &sqldb.Dump{}
	var refs []pagedTableRef
	sawEnd := false
	for !sawEnd {
		payload, err := readFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, errTorn) {
				return nil, nil, 0, fmt.Errorf("persist: %s: corrupt snapshot: %w: %w", path, ErrCorrupt, err)
			}
			return nil, nil, 0, fmt.Errorf("persist: %s: snapshot read: %w", path, err)
		}
		dd := &dec{buf: payload}
		switch typ := dd.u8(); typ {
		case recTable:
			td := sqldb.TableDump{Name: dd.str()}
			td.Cols = dd.cols()
			td.Rows = dd.rows()
			if dd.err != nil {
				return nil, nil, 0, dd.err
			}
			d.Tables = append(d.Tables, td)
		case recPagedTable:
			td := sqldb.TableDump{Name: dd.str()}
			td.Cols = dd.cols()
			ref := pagedTableRef{tableIndex: len(d.Tables), file: dd.str()}
			n := int(dd.u32())
			if dd.err != nil || n > maxRecord {
				dd.fail("page count")
				return nil, nil, 0, dd.err
			}
			ref.pageRows = make([]int, 0, n)
			for i := 0; i < n && dd.err == nil; i++ {
				ref.pageRows = append(ref.pageRows, int(dd.u32()))
			}
			if dd.err != nil {
				return nil, nil, 0, dd.err
			}
			d.Tables = append(d.Tables, td)
			refs = append(refs, ref)
		case recIndex:
			ix := sqldb.IndexDump{Name: dd.str(), Table: dd.str(), Column: dd.str()}
			if dd.err != nil {
				return nil, nil, 0, dd.err
			}
			d.Indexes = append(d.Indexes, ix)
		case recStats:
			// Statistics written by older versions: ignored.
		case recEnd:
			sawEnd = true
		default:
			return nil, nil, 0, fmt.Errorf("persist: %s: unknown snapshot record type %d: %w", path, typ, ErrCorrupt)
		}
	}
	return d, refs, epoch, nil
}

// readPagedRows materializes every row of a checkpointed page file, in row
// id order.
func readPagedRows(fsys fault.FS, path string, pageRows []int) ([][]sqldb.Value, error) {
	total := 0
	for _, n := range pageRows {
		total += n
	}
	rows := make([][]sqldb.Value, 0, total)
	err := pager.ReadFileFS(fsys, path, func(pageNo int, page []byte) error {
		if pageNo >= len(pageRows) {
			return fmt.Errorf("persist: %s: page %d beyond snapshot's %d-page directory: %w", path, pageNo, len(pageRows), ErrCorrupt)
		}
		for s := 0; s < pageRows[pageNo]; s++ {
			rec := pager.PageRecord(page, s)
			if rec == nil {
				return fmt.Errorf("persist: %s: corrupt page %d (slot %d): %w", path, pageNo, s, ErrCorrupt)
			}
			row, err := sqldb.DecodeRowRecord(rec)
			if err != nil {
				return fmt.Errorf("persist: %s: page %d slot %d: %w: %w", path, pageNo, s, ErrCorrupt, err)
			}
			rows = append(rows, row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// syncDir fsyncs a directory so a just-performed rename survives a power
// loss. Filesystems that reject directory fsync are tolerated.
func syncDir(fsys fault.FS, dir string) error {
	df, err := fsys.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	_ = df.Sync()
	return nil
}
