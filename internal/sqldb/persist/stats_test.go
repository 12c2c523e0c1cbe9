package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

// TestAnalyzedSnapshotRoundTrip: statistics are never stored, so the
// snapshot of an analyzed database is byte-identical to that of the same
// database before ANALYZE, and it still reads back to an equal database.
func TestAnalyzedSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	plain := filepath.Join(dir, "plain.db")
	if err := WriteSnapshot(plain, db.Dump(), 3); err != nil {
		t.Fatal(err)
	}
	db.MustExec("ANALYZE items")
	path := filepath.Join(dir, "snap.db")
	if err := WriteSnapshot(path, db.Dump(), 3); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("ANALYZE changed the snapshot: %d bytes before, %d after", len(a), len(b))
	}
	d, _, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := sqldb.NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	sameDump(t, db, db2)
}

// explain renders the plan of q as one string.
func explain(t *testing.T, db *sqldb.DB, q string) string {
	t.Helper()
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for _, row := range res.Rows {
		line, _ := row[0].AsText()
		plan = append(plan, line)
	}
	return strings.Join(plan, "\n")
}

// TestStoreOpenDerivesStats: a reopened store carries no statistics — its
// first plan is structural, without estimates — and its first index build
// derives them from the rows as replayed, WAL tail included, so its plans
// then match those of a fresh database holding the same rows.
func TestStoreOpenDerivesStats(t *testing.T) {
	const q = "SELECT * FROM items WHERE id = 2"
	const tail = "INSERT INTO items VALUES (2, 'beta', 0.5, TRUE), (2, 'beta', 1.5, TRUE), (2, 'beta', 2.5, TRUE), (2, 'beta', 3.5, FALSE)"
	dir := t.TempDir()
	db := fixtureDB(t)
	db.MustExec("ANALYZE items")
	analyzed := explain(t, db, q)
	st, err := Create(dir, db, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(tail) // post-checkpoint: lives only in the WAL
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db2, st2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if txt := explain(t, db2, q); strings.Contains(txt, "est_rows=") {
		t.Fatalf("first plan on the reopened store has an estimate:\n%s", txt)
	}

	fresh := fixtureDB(t)
	fresh.MustExec(tail)
	for _, d := range []*sqldb.DB{db2, fresh} {
		if _, err := d.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	got, want := explain(t, db2, q), explain(t, fresh, q)
	if got != want {
		t.Errorf("reopened store plans\n%s\nwant, as a fresh database with the same rows,\n%s", got, want)
	}
	if !strings.Contains(got, "est_rows=") || got == analyzed {
		t.Errorf("plan after one query does not reflect the replayed rows:\n%s\n(snapshot-time plan:\n%s)", got, analyzed)
	}
}

// storeWithStats is a store written before statistics stopped being
// stored: fixtureDB with items on paged storage, analyzed, then Create'd,
// so its snapshot holds a stats record per items index and a page file.
const storeWithStats = "testdata/analyzed-paged-store"

// TestOpenStoreWrittenWithStats: a snapshot carrying the retired stats
// records still opens — with a pool and without — is not taken for
// corruption, and holds exactly the fixture's tables and indexes.
func TestOpenStoreWrittenWithStats(t *testing.T) {
	want := fixtureDB(t).Dump()
	for _, tc := range []struct {
		name string
		pool *pager.Pool
	}{{"pool", pager.NewPool(8)}, {"no-pool", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir(storeWithStats)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				raw, err := os.ReadFile(filepath.Join(storeWithStats, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, st, err := Open(dir, Options{Sync: SyncAlways, Pool: tc.pool})
			if err != nil {
				t.Fatalf("open: %v (corrupt: %v)", err, IsCorrupt(err))
			}
			defer st.Close()
			got := db.Dump()
			for i := range got.Tables {
				td := &got.Tables[i]
				if td.Paged == nil {
					continue
				}
				if td.Rows, err = td.Paged.All(); err != nil {
					t.Fatal(err)
				}
				td.Paged = nil
			}
			if !reflect.DeepEqual(got.Tables, want.Tables) {
				t.Errorf("tables = %#v, want %#v", got.Tables, want.Tables)
			}
			if !reflect.DeepEqual(got.Indexes, want.Indexes) {
				t.Errorf("indexes = %#v, want %#v", got.Indexes, want.Indexes)
			}
		})
	}
}
