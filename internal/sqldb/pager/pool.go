package pager

import (
	"errors"
	"sync"
	"time"
)

// ErrNoFrames is returned by Pin when every frame in the pool is pinned:
// eviction is refused while a frame is pinned, so a pool smaller than a
// query's working set of simultaneous pins surfaces as this error rather
// than silently evicting data someone is reading.
var ErrNoFrames = errors.New("pager: all buffer-pool frames are pinned")

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Hits            int64 // pins served from a resident frame
	Misses          int64 // pins that had to fault the page from disk
	Evictions       int64 // resident pages displaced to make room
	DirtyWritebacks int64 // evictions (or flushes) that had to write the page out first
	Pinned          int64 // frames currently pinned
	Resident        int64 // frames currently holding a page
}

// Pool is a shared buffer pool: a fixed set of PageSize frames serving many
// Files (typically one per paged table across many sessions). All state is
// guarded by one mutex; disk I/O for faults and writebacks happens outside
// it, coordinated through per-frame loading/flushing markers and a condition
// variable.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []*Frame
	table  map[frameKey]*Frame
	clock  int

	hits, misses, evictions, writebacks int64
}

type frameKey struct {
	file   *File
	pageNo int
}

// Frame is one pool slot. Its buffer is only valid to read or write while
// the holder has it pinned; concurrent access to the contents is serialised
// by the owning DB's lock, not by the pin (see File.Pin).
type Frame struct {
	pool *Pool
	buf  []byte

	key      frameKey
	mapped   bool
	pins     int
	dirty    bool
	ref      bool // clock reference bit
	loading  bool // contents being faulted in; buf not yet valid
	flushing bool // contents being written back by an evictor
}

// NewPool builds a pool of npages frames (minimum 2).
func NewPool(npages int) *Pool {
	if npages < 2 {
		npages = 2
	}
	p := &Pool{table: make(map[frameKey]*Frame, npages)}
	p.frames = make([]*Frame, npages)
	for i := range p.frames {
		p.frames[i] = &Frame{pool: p, buf: make([]byte, PageSize)}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Len returns the pool's frame count.
func (p *Pool) Len() int { return len(p.frames) }

// Stats returns current counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Hits:            p.hits,
		Misses:          p.misses,
		Evictions:       p.evictions,
		DirtyWritebacks: p.writebacks,
	}
	for _, fr := range p.frames {
		if fr.mapped {
			s.Resident++
		}
		if fr.pins > 0 {
			s.Pinned++
		}
	}
	return s
}

// Data returns the frame's page buffer. Valid only while pinned; reads and
// writes of it are serialised by the owning DB's lock, not by the pin.
func (fr *Frame) Data() []byte { return fr.buf }

// MarkDirty records that the holder modified the page; the pool will write
// it back to the owning file before the frame can be recycled.
func (fr *Frame) MarkDirty() {
	p := fr.pool
	p.mu.Lock()
	fr.dirty = true
	p.mu.Unlock()
}

// Unpin releases one pin. The frame becomes eligible for eviction when its
// pin count reaches zero.
func (fr *Frame) Unpin() {
	p := fr.pool
	p.mu.Lock()
	fr.pins--
	if fr.pins == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// pin returns a pinned frame holding page pageNo of f, faulting it from
// disk on a miss. Concurrent pins of the same missing page coalesce onto one
// disk read. A non-nil tracker receives this caller's fault/eviction
// activity (trace attribution); the process-wide fault observer sees every
// fault's read latency regardless.
func (p *Pool) pin(f *File, pageNo int, tk *Tracker) (*Frame, error) {
	k := frameKey{file: f, pageNo: pageNo}
	p.mu.Lock()
	for {
		if fr, ok := p.table[k]; ok {
			if fr.loading || fr.flushing {
				// The loader or flusher is using the buffer outside the
				// owner's lock, so a pin (and a writer behind it) must wait.
				// Both broadcast; a failed load or a finished eviction
				// unmaps the frame and we fault.
				p.cond.Wait()
				continue
			}
			fr.pins++
			fr.ref = true
			p.hits++
			p.mu.Unlock()
			return fr, nil
		}
		fr, err := p.acquireLocked(tk)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		// acquireLocked may have released the lock mid-flush; another
		// goroutine can have mapped k meanwhile. Put the frame back and take
		// the hit path.
		if _, ok := p.table[k]; ok {
			fr.pins = 0
			continue
		}
		fr.key = k
		fr.mapped = true
		fr.loading = true
		fr.ref = true
		p.table[k] = fr
		p.misses++
		p.mu.Unlock()
		readStart := time.Now()
		rerr := f.readPage(pageNo, fr.buf)
		if rerr == nil {
			d := time.Since(readStart)
			tk.noteFault(d)
			observeFault(d)
		}
		p.mu.Lock()
		fr.loading = false
		if rerr != nil {
			delete(p.table, k)
			fr.mapped = false
			fr.pins = 0
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		if rerr != nil {
			return nil, rerr
		}
		return fr, nil
	}
}

// pinNew returns a pinned, zeroed, dirty frame for a page that has never
// been written (File.Allocate).
func (p *Pool) pinNew(f *File, pageNo int) (*Frame, error) {
	k := frameKey{file: f, pageNo: pageNo}
	p.mu.Lock()
	fr, err := p.acquireLocked(nil)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	fr.key = k
	fr.mapped = true
	fr.dirty = true
	fr.ref = true
	clear(fr.buf)
	p.table[k] = fr
	p.mu.Unlock()
	return fr, nil
}

// acquireLocked reclaims a victim frame, writing back its contents first if
// dirty. Called and returns with p.mu held (the lock is dropped around the
// writeback I/O). The returned frame is unmapped and reserved with pins=1.
// A non-nil tracker is charged for the eviction (and writeback) this
// caller's fault forced.
func (p *Pool) acquireLocked(tk *Tracker) (*Frame, error) {
	for {
		fr, allPinned := p.victimLocked()
		if fr == nil {
			if allPinned {
				return nil, ErrNoFrames
			}
			p.cond.Wait() // some frame is mid-load/mid-flush; it will settle
			continue
		}
		fr.pins = 1 // reserve: no other evictor may take it
		if fr.dirty {
			// Write back with the mapping still in place so a concurrent
			// pin of the same page waits for the flush instead of
			// faulting stale bytes from disk.
			fr.dirty = false
			fr.flushing = true
			vk := fr.key
			p.writebacks++
			p.mu.Unlock()
			writeStart := time.Now()
			werr := vk.file.writePage(vk.pageNo, fr.buf)
			if werr == nil {
				tk.noteWriteback(time.Since(writeStart))
			}
			p.mu.Lock()
			fr.flushing = false
			p.cond.Broadcast()
			if werr != nil {
				fr.pins = 0
				fr.dirty = true
				return nil, werr
			}
		}
		if fr.mapped {
			delete(p.table, fr.key)
			fr.mapped = false
			p.evictions++
			tk.noteEviction()
		}
		fr.dirty = false
		fr.ref = false
		return fr, nil
	}
}

// victimLocked runs the clock hand over the frames: first encounter clears a
// frame's reference bit, second selects it. Returns (nil, true) when every
// frame is pinned, (nil, false) when the only obstacles are transient
// loads/flushes worth waiting out.
func (p *Pool) victimLocked() (fr *Frame, allPinned bool) {
	n := len(p.frames)
	allPinned = true
	for i := 0; i < 2*n; i++ {
		f := p.frames[p.clock%n]
		p.clock++
		if f.loading || f.flushing {
			allPinned = false
			continue
		}
		if f.pins > 0 {
			continue
		}
		allPinned = false
		if !f.mapped {
			return f, false
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f, false
	}
	return nil, allPinned
}

// copyResident copies page pageNo of f into dst if it is resident, so a
// checkpoint can capture in-pool (possibly dirty) state without faulting.
func (p *Pool) copyResident(f *File, pageNo int, dst []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.table[frameKey{file: f, pageNo: pageNo}]
	if !ok || fr.loading {
		return false
	}
	copy(dst, fr.buf)
	return true
}

// markFileClean clears the dirty bit on every resident frame of f. Called
// after a checkpoint has durably captured the file's state.
func (p *Pool) markFileClean(f *File) {
	p.mu.Lock()
	for _, fr := range p.frames {
		if fr.mapped && fr.key.file == f {
			fr.dirty = false
		}
	}
	p.mu.Unlock()
}

// dropFile discards every resident frame of f, waiting out transient pins,
// loads, and flushes. Dirty contents are discarded — callers either just
// checkpointed or are deleting the table.
func (p *Pool) dropFile(f *File) {
	p.mu.Lock()
	for {
		busy := false
		for _, fr := range p.frames {
			if !fr.mapped || fr.key.file != f {
				continue
			}
			if fr.pins > 0 || fr.loading || fr.flushing {
				busy = true
				continue
			}
			delete(p.table, fr.key)
			fr.mapped = false
			fr.dirty = false
		}
		if !busy {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// EvictAll flushes and drops every unpinned resident frame — a test and
// measurement hook for forcing a cold pool. Pinned frames are left in place.
func (p *Pool) EvictAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range p.frames {
		if !fr.mapped || fr.pins > 0 || fr.loading || fr.flushing {
			continue
		}
		if fr.dirty {
			fr.dirty = false
			fr.flushing = true
			vk := fr.key
			p.writebacks++
			p.mu.Unlock()
			werr := vk.file.writePage(vk.pageNo, fr.buf)
			p.mu.Lock()
			fr.flushing = false
			p.cond.Broadcast()
			if werr != nil {
				fr.dirty = true
				return werr
			}
		}
		delete(p.table, fr.key)
		fr.mapped = false
		p.evictions++
	}
	return nil
}
