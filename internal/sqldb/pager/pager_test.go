package pager

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// pageStamp fills a pinned frame's page with a single record identifying
// (tag, pageNo), so any cross-page or stale-content mix-up is detectable.
func pageStamp(tag string, pageNo int) []byte {
	return []byte(fmt.Sprintf("stamp:%s:page:%d", tag, pageNo))
}

func stampFrame(fr *Frame, tag string, pageNo int) {
	p := fr.Data()
	PageInit(p)
	if !PageAppend(p, pageStamp(tag, pageNo)) {
		panic("stamp does not fit in an empty page")
	}
	fr.MarkDirty()
}

func checkStamp(t *testing.T, fr *Frame, tag string, pageNo int) {
	t.Helper()
	p := fr.Data()
	if n := PageCount(p); n != 1 {
		t.Fatalf("page %d: %d records, want 1", pageNo, n)
	}
	if got, want := PageRecord(p, 0), pageStamp(tag, pageNo); !bytes.Equal(got, want) {
		t.Fatalf("page %d: record %q, want %q", pageNo, got, want)
	}
}

// newStampedFile allocates npages pages, stamps each, and unpins them all.
func newStampedFile(t *testing.T, pool *Pool, tag string, npages int) *File {
	t.Helper()
	f := NewFile(pool, filepath.Join(t.TempDir(), "spill.db"))
	for i := 0; i < npages; i++ {
		pageNo, fr, err := f.Allocate()
		if err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
		if pageNo != i {
			t.Fatalf("allocate returned page %d, want %d", pageNo, i)
		}
		stampFrame(fr, tag, pageNo)
		fr.Unpin()
	}
	return f
}

func TestPageSlotting(t *testing.T) {
	p := make([]byte, PageSize)
	PageInit(p)
	if n := PageCount(p); n != 0 {
		t.Fatalf("fresh page has %d records", n)
	}
	var recs [][]byte
	for i := 0; ; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, string(make([]byte, i%50))))
		if !PageAppend(p, rec) {
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) < 2 {
		t.Fatalf("page fit only %d records", len(recs))
	}
	if n := PageCount(p); n != len(recs) {
		t.Fatalf("PageCount %d, want %d", n, len(recs))
	}
	for i, want := range recs {
		if got := PageRecord(p, i); !bytes.Equal(got, want) {
			t.Fatalf("record %d: %q, want %q", i, got, want)
		}
	}
	// In-place replace (same length), then grow within free space.
	if !PageReplace(p, 0, bytes.ToUpper(recs[0])) {
		t.Fatal("same-length replace failed")
	}
	if got := PageRecord(p, 0); !bytes.Equal(got, bytes.ToUpper(recs[0])) {
		t.Fatalf("replaced record 0 is %q", got)
	}
	if PageAppend(p, make([]byte, PageSize)) {
		t.Fatal("oversized append succeeded")
	}
	// Out-of-bounds and oversized access must degrade, not panic.
	if PageRecord(p, len(recs)) != nil || PageRecord(p, -1) != nil {
		t.Fatal("out-of-bounds PageRecord returned data")
	}
	if PageReplace(p, 1, make([]byte, MaxRecord+1)) {
		t.Fatal("oversized replace succeeded")
	}
}

func TestPinMissHitAndStats(t *testing.T) {
	pool := NewPool(8)
	f := newStampedFile(t, pool, "a", 3)
	defer f.Close()
	base := pool.Stats()
	fr, err := f.Pin(1)
	if err != nil {
		t.Fatal(err)
	}
	checkStamp(t, fr, "a", 1)
	if s := pool.Stats(); s.Hits != base.Hits+1 && s.Misses != base.Misses+1 {
		t.Fatalf("pin counted neither hit nor miss: %+v -> %+v", base, s)
	}
	if s := pool.Stats(); s.Pinned != 1 {
		t.Fatalf("Pinned = %d, want 1", s.Pinned)
	}
	fr.Unpin()
	// Force everything out, then re-pin: must be a miss served from disk.
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Resident != 0 {
		t.Fatalf("Resident = %d after EvictAll", s.Resident)
	}
	m0 := pool.Stats().Misses
	fr, err = f.Pin(2)
	if err != nil {
		t.Fatal(err)
	}
	checkStamp(t, fr, "a", 2)
	if m := pool.Stats().Misses; m != m0+1 {
		t.Fatalf("cold pin counted %d misses, want 1", m-m0)
	}
	// Second pin of a resident page is a hit.
	h0 := pool.Stats().Hits
	fr2, err := f.Pin(2)
	if err != nil {
		t.Fatal(err)
	}
	if h := pool.Stats().Hits; h != h0+1 {
		t.Fatalf("warm pin counted %d hits, want 1", h-h0)
	}
	fr2.Unpin()
	fr.Unpin()
}

func TestEvictionRefusedWhilePinned(t *testing.T) {
	pool := NewPool(2)
	f := newStampedFile(t, pool, "p", 2)
	defer f.Close()
	fr0, err := f.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	fr1, err := f.Pin(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every frame pinned: a third page must be refused, not steal a frame.
	if _, _, err := f.Allocate(); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("Allocate with all frames pinned: err = %v, want ErrNoFrames", err)
	}
	// The pinned frames' contents survived the refused acquisition.
	checkStamp(t, fr0, "p", 0)
	checkStamp(t, fr1, "p", 1)
	fr1.Unpin()
	// One frame free again: the same allocation now succeeds.
	pageNo, fr2, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	stampFrame(fr2, "p", pageNo)
	fr2.Unpin()
	fr0.Unpin()
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	pool := NewPool(2)
	const npages = 8
	f := newStampedFile(t, pool, "w", npages) // 8 dirty pages through 2 frames
	defer f.Close()
	s := pool.Stats()
	if s.Evictions == 0 || s.DirtyWritebacks == 0 {
		t.Fatalf("stamping %d pages through %d frames: %+v (want evictions and writebacks)", npages, pool.Len(), s)
	}
	// Every page's content must round-trip through the spill.
	for i := 0; i < npages; i++ {
		fr, err := f.Pin(i)
		if err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		checkStamp(t, fr, "w", i)
		fr.Unpin()
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	pool := NewPool(4)
	dir := t.TempDir()
	f := newStampedFile(t, pool, "c", 10)
	base := filepath.Join(dir, "pages.db")
	if err := f.CheckpointTo(base); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint nothing is dirty: evicting everything must not
	// add writebacks.
	w0 := pool.Stats().DirtyWritebacks
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if w := pool.Stats().DirtyWritebacks; w != w0 {
		t.Fatalf("EvictAll after checkpoint wrote back %d pages", w-w0)
	}
	// The live file now reads from the new base.
	for i := 0; i < 10; i++ {
		fr, err := f.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		checkStamp(t, fr, "c", i)
		fr.Unpin()
	}
	f.Close()
	// A fresh attach (the rehydration path) sees identical pages.
	f2, err := OpenFile(pool, base, filepath.Join(dir, "spill2.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Pages() != 10 {
		t.Fatalf("reopened file has %d pages, want 10", f2.Pages())
	}
	for i := 0; i < 10; i++ {
		fr, err := f2.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		checkStamp(t, fr, "c", i)
		fr.Unpin()
	}
	// The pool-free sequential reader agrees too.
	n := 0
	err = ReadFile(base, func(pageNo int, page []byte) error {
		if got, want := PageRecord(page, 0), pageStamp("c", pageNo); !bytes.Equal(got, want) {
			return fmt.Errorf("page %d: %q", pageNo, got)
		}
		n++
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("ReadFile: n=%d err=%v", n, err)
	}
}

func TestClosedFileRejectsReads(t *testing.T) {
	pool := NewPool(4)
	f := newStampedFile(t, pool, "x", 2)
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Pin(0); err == nil {
		t.Fatal("Pin on a closed file succeeded")
	}
	if _, _, err := f.Allocate(); err == nil {
		t.Fatal("Allocate on a closed file succeeded")
	}
}

// TestConcurrentPinUnpinFault is the -race lock on the pool: many readers
// hammer pages through a pool far smaller than the working set (every pin is
// a potential fault racing another frame's eviction), a writer keeps
// re-dirtying pages, and an evictor cycles the whole pool. Every read must
// observe exactly the content the page was last stamped with. Pins guard
// residency only, so each file carries the lock its owning DB would hold:
// shared by readers, exclusive for the writer.
func TestConcurrentPinUnpinFault(t *testing.T) {
	pool := NewPool(4)
	const npages = 32
	// Two files sharing the pool, as sessions share it in the server.
	fa := newStampedFile(t, pool, "fa", npages)
	fb := newStampedFile(t, pool, "fb", npages)
	defer fa.Close()
	defer fb.Close()
	var faMu, fbMu sync.RWMutex

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				f, mu, tag := fa, &faMu, "fa"
				if r.Intn(2) == 0 {
					f, mu, tag = fb, &fbMu, "fb"
				}
				pageNo := r.Intn(npages)
				mu.RLock()
				fr, err := f.Pin(pageNo)
				if err != nil {
					mu.RUnlock()
					if errors.Is(err, ErrNoFrames) {
						continue // transient full pool under 8 concurrent pins
					}
					errs <- err
					return
				}
				var bad error
				if got, want := PageRecord(fr.Data(), 0), pageStamp(tag, pageNo); !bytes.Equal(got, want) {
					bad = fmt.Errorf("%s page %d: read %q", tag, pageNo, got)
				}
				fr.Unpin()
				mu.RUnlock()
				if bad != nil {
					errs <- bad
					return
				}
			}
		}(g)
	}
	// Writer: keeps pages dirty so evictions must write back mid-race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			pageNo := r.Intn(npages)
			faMu.Lock()
			fr, err := fa.Pin(pageNo)
			if err != nil {
				faMu.Unlock()
				if errors.Is(err, ErrNoFrames) {
					continue
				}
				errs <- err
				return
			}
			stampFrame(fr, "fa", pageNo) // same bytes, but dirties the frame
			fr.Unpin()
			faMu.Unlock()
		}
	}()
	// Evictor: forces fault-during-eviction interleavings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := pool.EvictAll(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Invariant check: nothing is left pinned.
	if s := pool.Stats(); s.Pinned != 0 {
		t.Fatalf("leaked pins: %+v", s)
	}
}

// TestConcurrentCheckpointAndReads covers the checkpoint-vs-reader race the
// persistence layer depends on: CheckpointTo retargets the base while other
// goroutines keep faulting pages of the same file.
func TestConcurrentCheckpointAndReads(t *testing.T) {
	pool := NewPool(4)
	dir := t.TempDir()
	const npages = 16
	f := newStampedFile(t, pool, "ck", npages)
	defer f.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				pageNo := r.Intn(npages)
				fr, err := f.Pin(pageNo)
				if err != nil {
					if errors.Is(err, ErrNoFrames) {
						continue
					}
					errs <- err
					return
				}
				if got, want := PageRecord(fr.Data(), 0), pageStamp("ck", pageNo); !bytes.Equal(got, want) {
					errs <- fmt.Errorf("page %d: read %q during checkpoint", pageNo, got)
					fr.Unpin()
					return
				}
				fr.Unpin()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := f.CheckpointTo(filepath.Join(dir, "ckpt.db")); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	pool := NewPool(2)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.db")
	if err := os.WriteFile(bad, []byte("definitely not a page file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(pool, bad, filepath.Join(dir, "s.db")); err == nil {
		t.Fatal("OpenFile accepted garbage")
	}
	// Header claiming more pages than the file holds.
	f := newStampedFile(t, pool, "g", 3)
	base := filepath.Join(dir, "short.db")
	if err := f.CheckpointTo(base); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Truncate(base, fileHeaderLen+PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(pool, base, filepath.Join(dir, "s2.db")); err == nil {
		t.Fatal("OpenFile accepted a truncated page file")
	}
}
