package persist

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

// fixtureStore creates the fixture database's store in a new directory and
// closes it, leaving a snapshot and a header-only WAL.
func fixtureStore(tb testing.TB, dir string) {
	tb.Helper()
	st, err := Create(dir, fixtureDB(tb), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestStoreOpenMemory bounds what opening a small store costs in memory.
// Read buffers are sized to the files they read and the WAL holds no write
// buffer, so one Open+Close allocates a few KiB beyond the decoded database,
// and an open store retains little more than the database itself. A 1 MiB
// replay reader, or a 64 KiB WAL writer kept per open store, breaks the
// bounds.
func TestStoreOpenMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	fixtureStore(t, dir)
	openClose := func() {
		_, st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 20
	openClose()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		openClose()
	}
	runtime.ReadMemStats(&after)
	perOpen := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Open+Close allocates %.0f B", perOpen)
	if perOpen > 64<<10 {
		t.Errorf("Open+Close allocates %.0f B, budget %d", perOpen, 64<<10)
	}

	dirs := make([]string, runs)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprint(i))
		fixtureStore(t, dirs[i])
	}
	stores := make([]*Store, runs)
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, d := range dirs {
		_, st, err := Open(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perStore := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / runs
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("an open store retains %.0f B", perStore)
	if perStore > 16<<10 {
		t.Errorf("an open store retains %.0f B, budget %d", perStore, 16<<10)
	}
}

// BenchmarkStoreOpen measures one Open+Close of the fixture store.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	fixtureStore(b, dir)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, st, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
