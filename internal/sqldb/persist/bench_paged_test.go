package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

// benchRows sizes the candidates-like table: 4000 rows x 8 columns spans
// dozens of pages, so the paged arm's working set is much larger than any
// single query touches.
const benchRows = 4000

// benchTemplate writes one committed store directory holding a bulky
// candidates-shaped table, on slice or paged storage. Copies of it stand in
// for independent sessions.
func benchTemplate(b *testing.B, paged bool) string {
	b.Helper()
	dir := b.TempDir()
	db := sqldb.New()
	db.MustExec("CREATE TABLE candidates (id INT, time INT, diff FLOAT, gap FLOAT, p FLOAT, f0 FLOAT, f1 FLOAT, f2 FLOAT)")
	rows := make([][]sqldb.Value, benchRows)
	for i := range rows {
		rows[i] = []sqldb.Value{
			sqldb.Int(int64(i)), sqldb.Int(int64(i % 3)),
			sqldb.Float(float64(i) * 0.25), sqldb.Float(float64(i) * 0.5),
			sqldb.Float(1 / float64(i+1)), sqldb.Float(float64(i)),
			sqldb.Float(float64(i) + 0.125), sqldb.Float(float64(i) + 0.25),
		}
	}
	if err := db.InsertRows("candidates", rows); err != nil {
		b.Fatal(err)
	}
	var opts Options
	if paged {
		pool := pager.NewPool(16)
		opts.Pool = pool
		if err := db.PageTable("candidates", pool, filepath.Join(dir, SpillFileName("candidates"))); err != nil {
			b.Fatal(err)
		}
	}
	st, err := Create(dir, db, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// copyStoreDir clones a template store directory (flat: snapshot, WAL, page
// and spill files) so each "session" owns its files.
func copyStoreDir(b testing.TB, src, dst string) {
	b.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidentFootprint measures heap bytes per resident idle session:
// each iteration opens a fleet of independent stores from disk, holds them
// all live, and reports the GC-settled heap delta divided by the fleet size.
// The slice arm decodes every row into the heap on open; the paged arm
// attaches page files to a shared 256-frame pool (allocated outside the
// measurement window, as one pool serves the whole fleet) and owns only
// fault-in frames bounded by that pool.
func BenchmarkResidentFootprint(b *testing.B) {
	for _, arm := range []struct {
		name  string
		paged bool
	}{{"slice", false}, {"paged", true}} {
		b.Run(arm.name, func(b *testing.B) {
			tmpl := benchTemplate(b, arm.paged)
			const fleet = 32
			var perSession float64
			dbs := make([]*sqldb.DB, fleet)
			stores := make([]*Store, fleet)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var pool *pager.Pool
				if arm.paged {
					pool = pager.NewPool(256)
				}
				root, err := os.MkdirTemp("", "bench-fleet-")
				if err != nil {
					b.Fatal(err)
				}
				dirs := make([]string, fleet)
				for j := range dirs {
					dirs[j] = filepath.Join(root, fmt.Sprintf("s-%04d", j))
					copyStoreDir(b, tmpl, dirs[j])
				}
				runtime.GC()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				b.StartTimer()
				for j := range dirs {
					db, st, err := Open(dirs[j], Options{Pool: pool})
					if err != nil {
						b.Fatal(err)
					}
					dbs[j], stores[j] = db, st
				}
				b.StopTimer()
				runtime.GC()
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d > 0 {
					perSession = float64(d) / fleet
				}
				for j := range stores {
					if err := stores[j].Close(); err != nil {
						b.Fatal(err)
					}
					dbs[j], stores[j] = nil, nil
				}
				os.RemoveAll(root)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(perSession, "B/session")
		})
	}
}

// BenchmarkColdFault measures time-to-first-answer for a cold session: open
// the store from disk and run one point query. The slice arm pays full row
// decode up front; the paged arm attaches without decoding and faults pages
// in on demand during the query.
func BenchmarkColdFault(b *testing.B) {
	for _, arm := range []struct {
		name  string
		paged bool
	}{{"slice", false}, {"paged", true}} {
		b.Run(arm.name, func(b *testing.B) {
			tmpl := benchTemplate(b, arm.paged)
			dir := filepath.Join(b.TempDir(), "s-cold")
			copyStoreDir(b, tmpl, dir)
			var pool *pager.Pool
			if arm.paged {
				pool = pager.NewPool(256)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, st, err := Open(dir, Options{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				res, err := db.Query("SELECT * FROM candidates WHERE id = ?", sqldb.Int(int64(i%benchRows)))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("point query returned %d rows", len(res.Rows))
				}
				b.StopTimer()
				// Closing evicts this store's frames, so every open is cold.
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
