package sqldb

import (
	"fmt"
	"sort"

	"justintime/internal/fault"
	"justintime/internal/sqldb/pager"
)

// PagedTable is a RowStore keeping rows encoded in fixed-size slotted pages
// behind a shared buffer pool rather than on the heap. A warm but idle
// session then costs a page directory (a few ints per page) instead of its
// full row set; reading a row pins exactly the page holding it, faulting it
// from the table's page file on a miss.
//
// The page directory (rows per page, cumulative starts) stays in memory: it
// is what maps a positional row id to (page, slot) without touching disk.
type PagedTable struct {
	file     *pager.File
	pageRows []int
	starts   []int // starts[p] = row id of page p's first row; len(pageRows)+1
	total    int
}

// NewPagedTableFS creates an empty paged store spilling dirty pages to
// spillPath (the base page file appears at the first checkpoint), on an
// injectable filesystem (nil = the real one).
func NewPagedTableFS(fsys fault.FS, pool *pager.Pool, spillPath string) *PagedTable {
	return &PagedTable{file: pager.NewFileFS(fsys, pool, spillPath), starts: []int{0}}
}

// OpenPagedTableFS opens a base page file written by CheckpointTo, with
// pageRows giving each page's row count (recorded in the snapshot), on an
// injectable filesystem (nil = the real one).
func OpenPagedTableFS(fsys fault.FS, pool *pager.Pool, basePath, spillPath string, pageRows []int) (*PagedTable, error) {
	f, err := pager.OpenFileFS(fsys, pool, basePath, spillPath)
	if err != nil {
		return nil, err
	}
	if f.Pages() != len(pageRows) {
		f.Close()
		return nil, fmt.Errorf("sqldb: page file %s has %d pages, snapshot records %d", basePath, f.Pages(), len(pageRows))
	}
	pt := &PagedTable{file: f, pageRows: append([]int(nil), pageRows...)}
	pt.rebuildStarts()
	return pt, nil
}

func (pt *PagedTable) rebuildStarts() {
	pt.starts = make([]int, len(pt.pageRows)+1)
	for p, n := range pt.pageRows {
		pt.starts[p+1] = pt.starts[p] + n
	}
	pt.total = pt.starts[len(pt.pageRows)]
}

// PageRows returns a copy of the page directory (rows per page), for the
// persistence layer to record alongside the page file.
func (pt *PagedTable) PageRows() []int { return append([]int(nil), pt.pageRows...) }

// CheckpointTo writes the table's complete page set to path (fsynced,
// rename-atomic) and retargets reads at it; see pager.File.CheckpointTo.
// Call with the DB write-locked (persist checkpoints inside CheckpointWith).
func (pt *PagedTable) CheckpointTo(path string) error { return pt.file.CheckpointTo(path) }

// Len implements RowStore.
func (pt *PagedTable) Len() int { return pt.total }

// pageOf returns the page holding row id i.
func (pt *PagedTable) pageOf(i int) int {
	return sort.Search(len(pt.pageRows), func(p int) bool { return pt.starts[p+1] > i })
}

// Get implements RowStore; the returned row is a fresh copy.
func (pt *PagedTable) Get(i int) ([]Value, error) { return pt.GetTracked(i, nil) }

// GetTracked is Get with pool-activity attribution: a page fault this read
// causes (and any eviction/writeback it forces) is charged to tk, so the
// executor can report its own paging cost on the request trace. tk may be
// nil.
func (pt *PagedTable) GetTracked(i int, tk *pager.Tracker) ([]Value, error) {
	if i < 0 || i >= pt.total {
		return nil, fmt.Errorf("sqldb: row id %d out of range [0,%d)", i, pt.total)
	}
	p := pt.pageOf(i)
	fr, err := pt.file.PinTracked(p, tk)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	rec := pager.PageRecord(fr.Data(), i-pt.starts[p])
	if rec == nil {
		return nil, fmt.Errorf("sqldb: corrupt page %d (row id %d)", p, i)
	}
	return DecodeRowRecord(rec)
}

// Scan implements RowStore. Each page is pinned only while its rows decode;
// fn runs on copies, so it may itself touch other paged tables.
func (pt *PagedTable) Scan(fn func(i int, row []Value) error) error {
	return pt.ScanTracked(nil, fn)
}

// ScanTracked is Scan with pool-activity attribution (see GetTracked).
func (pt *PagedTable) ScanTracked(tk *pager.Tracker, fn func(i int, row []Value) error) error {
	id := 0
	for p, want := range pt.pageRows {
		fr, err := pt.file.PinTracked(p, tk)
		if err != nil {
			return err
		}
		rows := make([][]Value, 0, want)
		var derr error
		for s := 0; s < want; s++ {
			rec := pager.PageRecord(fr.Data(), s)
			if rec == nil {
				derr = fmt.Errorf("sqldb: corrupt page %d (slot %d)", p, s)
				break
			}
			row, err := DecodeRowRecord(rec)
			if err != nil {
				derr = err
				break
			}
			rows = append(rows, row)
		}
		fr.Unpin()
		if derr != nil {
			return derr
		}
		for _, row := range rows {
			if err := fn(id, row); err != nil {
				return err
			}
			id++
		}
	}
	return nil
}

// All implements RowStore by materializing every row.
func (pt *PagedTable) All() ([][]Value, error) {
	out := make([][]Value, 0, pt.total)
	err := pt.Scan(func(_ int, row []Value) error {
		out = append(out, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Append implements RowStore, packing rows into the last page and allocating
// new pages as needed.
func (pt *PagedTable) Append(rows [][]Value) error {
	var buf []byte
	var fr *pager.Frame // pinned frame of the page currently receiving rows
	page := len(pt.pageRows) - 1
	defer func() {
		if fr != nil {
			fr.Unpin()
		}
	}()
	for _, row := range rows {
		buf = AppendRowRecord(buf[:0], row)
		if len(buf) > pager.MaxRecord {
			return fmt.Errorf("sqldb: row of %d bytes exceeds page capacity %d", len(buf), pager.MaxRecord)
		}
		if fr == nil && page >= 0 {
			var err error
			if fr, err = pt.file.Pin(page); err != nil {
				return err
			}
		}
		if fr == nil || !pager.PageAppend(fr.Data(), buf) {
			if fr != nil {
				fr.Unpin()
				fr = nil
			}
			var err error
			if page, fr, err = pt.file.Allocate(); err != nil {
				return err
			}
			pager.PageInit(fr.Data())
			if !pager.PageAppend(fr.Data(), buf) {
				return fmt.Errorf("sqldb: row of %d bytes does not fit an empty page", len(buf))
			}
			pt.pageRows = append(pt.pageRows, 0)
			pt.starts = append(pt.starts, pt.total)
		}
		fr.MarkDirty()
		pt.pageRows[page]++
		pt.total++
		pt.starts[page+1] = pt.total
	}
	return nil
}

// Set implements RowStore: in place when the new encoding fits the row's
// page, else by rewriting the whole table (row ids must stay stable, so rows
// can never migrate between pages individually).
func (pt *PagedTable) Set(i int, row []Value) error {
	if i < 0 || i >= pt.total {
		return fmt.Errorf("sqldb: row id %d out of range [0,%d)", i, pt.total)
	}
	rec := AppendRowRecord(nil, row)
	p := pt.pageOf(i)
	fr, err := pt.file.Pin(p)
	if err != nil {
		return err
	}
	if pager.PageReplace(fr.Data(), i-pt.starts[p], rec) {
		fr.MarkDirty()
		fr.Unpin()
		return nil
	}
	fr.Unpin()
	all, err := pt.All()
	if err != nil {
		return err
	}
	all[i] = row
	return pt.ReplaceAll(all)
}

// ReplaceAll implements RowStore by resetting the page file and re-packing.
func (pt *PagedTable) ReplaceAll(rows [][]Value) error {
	if err := pt.file.Reset(); err != nil {
		return err
	}
	pt.pageRows = pt.pageRows[:0]
	pt.starts = append(pt.starts[:0], 0)
	pt.total = 0
	return pt.Append(rows)
}

// Close implements RowStore, releasing pool frames and file descriptors and
// removing the spill file.
func (pt *PagedTable) Close() error { return pt.file.Close() }

// PageTable converts the named table's row storage from the default slice
// store to paged storage backed by pool, spilling dirty pages to spillPath.
// Row ids are preserved, so existing secondary indexes stay valid. Converting
// an already-paged table is a no-op.
func (db *DB) PageTable(name string, pool *pager.Pool, spillPath string) error {
	return db.PageTableFS(nil, name, pool, spillPath)
}

// PageTableFS is PageTable on an injectable filesystem (nil = the real one).
func (db *DB) PageTableFS(fsys fault.FS, name string, pool *pager.Pool, spillPath string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("sqldb: unknown table %q", name)
	}
	if _, already := t.store.(*PagedTable); already {
		return nil
	}
	rows, err := t.store.All()
	if err != nil {
		return err
	}
	pt := NewPagedTableFS(fsys, pool, spillPath)
	if err := pt.Append(rows); err != nil {
		pt.Close()
		return err
	}
	t.store = pt
	return nil
}

// ClosePagedStores closes every paged table's backing store. Queries racing
// the close fail gracefully with a "file is closed" error; slice-backed
// tables are untouched.
func (db *DB) ClosePagedStores() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var err error
	for _, t := range db.tables {
		if _, paged := t.store.(*PagedTable); paged {
			if cerr := t.store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}
