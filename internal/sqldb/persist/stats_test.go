package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

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

// TestStoreOpenDerivesStats: a reopened store plans like a fresh database
// holding the same rows, WAL tail included, from its first query on. The
// self-join's strategy depends on the rows: with the tail, seven outer rows
// outnumber the three distinct ids and the join hashes, where the
// snapshot's three rows alone would probe items_id.
func TestStoreOpenDerivesStats(t *testing.T) {
	const join = "SELECT COUNT(*) FROM items a INNER JOIN items b ON b.id = a.id"
	const tail = "INSERT INTO items VALUES (2, 'beta', 0.5, TRUE), (2, 'beta', 1.5, TRUE), (2, 'beta', 2.5, TRUE), (2, 'beta', 3.5, FALSE)"
	dir := t.TempDir()
	db := fixtureDB(t)
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

	fresh := fixtureDB(t)
	fresh.MustExec(tail)
	for _, q := range []string{"SELECT * FROM items WHERE id = 2", join} {
		for run := 1; run <= 2; run++ {
			if got, want := explain(t, db2, q), explain(t, fresh, q); got != want {
				t.Errorf("run %d: reopened store plans\n%s\nwant, as a fresh database with the same rows,\n%s", run, got, want)
			}
		}
	}
	if txt := explain(t, db2, join); !strings.Contains(txt, "hash join") {
		t.Errorf("self-join over the replayed rows does not hash:\n%s", txt)
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
