package pager

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"justintime/internal/fault"
)

// fileMagic identifies a page file; the trailing byte is the format version.
var fileMagic = []byte("JITPGF\x01\x00")

// fileHeaderLen is magic(8) + pageSize(u32) + npages(u32).
const fileHeaderLen = 16

// errFileClosed is returned for reads against a closed File (e.g. a query
// racing session shutdown); it surfaces as a query error, never corruption.
var errFileClosed = errors.New("pager: file is closed")

// ErrCorrupt marks structural damage in a page file (bad magic, wrong page
// size, a file shorter than its header claims) as opposed to a transient
// I/O error. Callers use errors.Is(err, ErrCorrupt) to decide whether a
// session's on-disk state should be quarantined rather than retried.
var ErrCorrupt = errors.New("pager: corrupt page file")

// File is the paged backing store for one table: an immutable base page file
// (written only by whole-file checkpoints) plus a volatile spill file
// receiving dirty-page writebacks between checkpoints. The spill is
// discarded on open — durability comes from the snapshot + WAL protocol one
// layer up, which replays logical mutations on top of the base — so
// writebacks never need to be crash-consistent.
//
// Page reads resolve spill-first, then base, then zero-fill (a page
// allocated but never written). All I/O serializes on f.mu; pin/unpin
// concurrency lives in the Pool.
type File struct {
	pool *Pool
	fs   fault.FS

	mu        sync.Mutex
	base      fault.File
	basePages int
	spillPath string
	spill     fault.File
	spillSize int64
	loc       map[int]int64 // pageNo -> spill offset, overriding base
	npages    int
	closed    bool
}

// NewFile creates an empty paged file with no base; pages exist only in the
// pool and the spill at spillPath until the first CheckpointTo.
func NewFile(pool *Pool, spillPath string) *File {
	return NewFileFS(nil, pool, spillPath)
}

// NewFileFS is NewFile on an injectable filesystem (nil = the real one).
func NewFileFS(fsys fault.FS, pool *Pool, spillPath string) *File {
	return &File{pool: pool, fs: fault.Of(fsys), spillPath: spillPath, loc: make(map[int]int64)}
}

// OpenFile opens an existing base page file written by CheckpointTo. Any
// stale spill at spillPath is truncated on first write.
func OpenFile(pool *Pool, basePath, spillPath string) (*File, error) {
	return OpenFileFS(nil, pool, basePath, spillPath)
}

// OpenFileFS is OpenFile on an injectable filesystem (nil = the real one).
func OpenFileFS(fsys fault.FS, pool *Pool, basePath, spillPath string) (*File, error) {
	fsys = fault.Of(fsys)
	b, err := fsys.Open(basePath)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	n, err := checkFileHeader(b, basePath)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &File{
		pool:      pool,
		fs:        fsys,
		base:      b,
		basePages: n,
		spillPath: spillPath,
		loc:       make(map[int]int64),
		npages:    n,
	}, nil
}

// checkFileHeader validates a base page file's header and length, returning
// its page count. Structural damage comes back wrapping ErrCorrupt; a read
// failing for transient reasons (EIO) keeps its own error.
func checkFileHeader(b fault.File, path string) (int, error) {
	hdr := make([]byte, fileHeaderLen)
	if _, err := b.ReadAt(hdr, 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, fmt.Errorf("pager: %s: truncated header: %w", path, ErrCorrupt)
		}
		return 0, fmt.Errorf("pager: %s: header: %w", path, err)
	}
	if string(hdr[:8]) != string(fileMagic) {
		return 0, fmt.Errorf("pager: %s: not a page file (bad magic): %w", path, ErrCorrupt)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:]); ps != PageSize {
		return 0, fmt.Errorf("pager: %s: page size %d, want %d: %w", path, ps, PageSize, ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(hdr[12:]))
	st, err := b.Stat()
	if err != nil {
		return 0, fmt.Errorf("pager: %s: stat: %w", path, err)
	}
	if st.Size() < int64(fileHeaderLen)+int64(n)*PageSize {
		return 0, fmt.Errorf("pager: %s: file shorter than its %d-page header claims: %w", path, n, ErrCorrupt)
	}
	return n, nil
}

// Pages returns the current page count.
func (f *File) Pages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.npages
}

// Pin faults page pageNo into the pool and returns it pinned. A pin guards
// residency, not contents: the frame stays mapped to the page until Unpin,
// but the pool does not serialise readers and writers of its bytes. The
// owning DB's lock does that (shared for reads, exclusive for writes), and
// page contents may be mutated only while pinned.
func (f *File) Pin(pageNo int) (*Frame, error) {
	return f.pool.pin(f, pageNo, nil)
}

// PinTracked is Pin with per-caller attribution: a fault (and any eviction
// or writeback it forces) is charged to tk, so a request trace can report
// its own pool activity. tk may be nil.
func (f *File) PinTracked(pageNo int, tk *Tracker) (*Frame, error) {
	return f.pool.pin(f, pageNo, tk)
}

// Allocate appends a fresh page and returns its number and a pinned, zeroed,
// dirty frame. Callers must serialize Allocate with their own writer lock
// (sqldb holds the DB write lock across mutations).
func (f *File) Allocate() (int, *Frame, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, nil, errFileClosed
	}
	pageNo := f.npages
	f.npages++
	f.mu.Unlock()
	fr, err := f.pool.pinNew(f, pageNo)
	if err != nil {
		f.mu.Lock()
		if f.npages == pageNo+1 {
			f.npages = pageNo
		}
		f.mu.Unlock()
		return 0, nil, err
	}
	return pageNo, fr, nil
}

// readPage fills buf with page pageNo: spill first, then base, then zeros.
func (f *File) readPage(pageNo int, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errFileClosed
	}
	if off, ok := f.loc[pageNo]; ok {
		_, err := f.spill.ReadAt(buf, off)
		return err
	}
	if pageNo < f.basePages {
		_, err := f.base.ReadAt(buf, int64(fileHeaderLen)+int64(pageNo)*PageSize)
		return err
	}
	clear(buf)
	return nil
}

// writePage persists a dirty page to the spill file (never the base). A
// write against a closed file is silently discarded: the session is gone and
// its durable state is the last checkpoint.
func (f *File) writePage(pageNo int, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if f.spill == nil {
		s, err := f.fs.OpenFile(f.spillPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("pager: spill: %w", err)
		}
		f.spill = s
	}
	off, reuse := f.loc[pageNo]
	if !reuse {
		off = f.spillSize
	}
	if _, err := f.spill.WriteAt(buf, off); err != nil {
		return fmt.Errorf("pager: spill: %w", err)
	}
	if !reuse {
		f.loc[pageNo] = off
		f.spillSize += PageSize
	}
	return nil
}

// CheckpointTo writes the file's complete current state (pool-resident
// frames included) to path via a fsynced temp-file rename, then retargets
// the File at the new base: resident frames are marked clean, the spill is
// truncated, and subsequent reads resolve against path. Must be called with
// the owning table quiesced (sqldb holds the DB write lock); concurrent
// evictions of this file's frames by other sessions are safe — they write
// bytes identical to what the checkpoint captured.
func (f *File) CheckpointTo(path string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errFileClosed
	}
	n := f.npages
	f.mu.Unlock()

	tmp := path + ".tmp"
	out, err := f.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pager: checkpoint: %w", err)
	}
	w := bufio.NewWriterSize(out, 1<<16)
	hdr := make([]byte, fileHeaderLen)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:], PageSize)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(n))
	_, err = w.Write(hdr)
	buf := make([]byte, PageSize)
	for pageNo := 0; pageNo < n && err == nil; pageNo++ {
		if !f.pool.copyResident(f, pageNo, buf) {
			err = f.readPage(pageNo, buf)
		}
		if err == nil {
			_, err = w.Write(buf)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		f.fs.Remove(tmp)
		return fmt.Errorf("pager: checkpoint: %w", err)
	}
	if err := f.fs.Rename(tmp, path); err != nil {
		f.fs.Remove(tmp)
		return fmt.Errorf("pager: checkpoint: %w", err)
	}
	syncDir(f.fs, filepath.Dir(path))

	// The new base now holds every page's current content; frames stop being
	// dirty and the spill's overrides are obsolete.
	f.pool.markFileClean(f)
	nb, err := f.fs.Open(path)
	if err != nil {
		return fmt.Errorf("pager: checkpoint reopen: %w", err)
	}
	f.mu.Lock()
	if f.base != nil {
		f.base.Close()
	}
	f.base = nb
	f.basePages = n
	f.loc = make(map[int]int64)
	if f.spill != nil {
		f.spill.Truncate(0)
	}
	f.spillSize = 0
	f.mu.Unlock()
	return nil
}

// Reset discards all pages (pool frames, spill overrides, and the base's
// relevance), returning the file to empty. Used when a table is rewritten
// wholesale (DELETE/UPDATE fallback).
func (f *File) Reset() error {
	f.pool.dropFile(f)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errFileClosed
	}
	f.basePages = 0
	f.npages = 0
	f.loc = make(map[int]int64)
	if f.spill != nil {
		f.spill.Truncate(0)
	}
	f.spillSize = 0
	return nil
}

// Close drops the file's pool frames, closes its descriptors, and removes
// the spill. Reads racing Close get errFileClosed.
func (f *File) Close() error {
	f.pool.dropFile(f)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var err error
	if f.base != nil {
		err = f.base.Close()
		f.base = nil
	}
	if f.spill != nil {
		if cerr := f.spill.Close(); err == nil {
			err = cerr
		}
		f.spill = nil
	}
	f.fs.Remove(f.spillPath)
	return err
}

// ReadFile iterates every page of a base page file sequentially without a
// pool — the slice-store fallback path for reading paged checkpoints on
// hosts that run without a buffer pool. The page buffer passed to fn is
// reused between calls.
func ReadFile(path string, fn func(pageNo int, page []byte) error) error {
	return ReadFileFS(nil, path, fn)
}

// ReadFileFS is ReadFile on an injectable filesystem (nil = the real one).
func ReadFileFS(fsys fault.FS, path string, fn func(pageNo int, page []byte) error) error {
	f, err := fault.Of(fsys).Open(path)
	if err != nil {
		return fmt.Errorf("pager: %w", err)
	}
	defer f.Close()
	n, err := checkFileHeader(f, path)
	if err != nil {
		return err
	}
	buf := make([]byte, PageSize)
	for pageNo := 0; pageNo < n; pageNo++ {
		if _, err := f.ReadAt(buf, int64(fileHeaderLen)+int64(pageNo)*PageSize); err != nil {
			return fmt.Errorf("pager: %s: page %d: %w", path, pageNo, err)
		}
		if err := fn(pageNo, buf); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-performed rename survives power loss;
// filesystems rejecting directory fsync are tolerated.
func syncDir(fsys fault.FS, dir string) {
	df, err := fsys.Open(dir)
	if err != nil {
		return
	}
	defer df.Close()
	_ = df.Sync()
}
