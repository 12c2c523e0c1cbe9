package persist

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"justintime/internal/sqldb"
)

// statsIndexes are fixtureDB's indexes over the items table.
var statsIndexes = []string{"items_id", "items_id_score"}

// TestSnapshotCarriesStats: ANALYZE-derived statistics ride the snapshot
// wire format and come back intact through Write/ReadSnapshot.
func TestSnapshotCarriesStats(t *testing.T) {
	db := fixtureDB(t)
	db.MustExec("ANALYZE items")
	path := filepath.Join(t.TempDir(), "snap.db")
	if err := WriteSnapshot(path, db.Dump(), 3); err != nil {
		t.Fatal(err)
	}
	d, _, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Stats) != len(statsIndexes) {
		t.Fatalf("snapshot carries %d stats records, want %d", len(d.Stats), len(statsIndexes))
	}
	db2, err := sqldb.NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	sameDump(t, db, db2)
	for _, ix := range statsIndexes {
		want, got := db.IndexStats("items", ix), db2.IndexStats("items", ix)
		if got == nil || !reflect.DeepEqual(*got, *want) {
			t.Errorf("stats for %s after snapshot roundtrip = %+v, want %+v", ix, got, want)
		}
	}
}

// TestStoreOpenRestoresStats: a store created from an analyzed database
// reopens with the statistics already installed — the planner can cost
// paths immediately, without first rebuilding every index (which, on a
// pool-attached paged table, would fault the whole table back in).
func TestStoreOpenRestoresStats(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	db.MustExec("ANALYZE items")
	st, err := Create(dir, db, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db2, st2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, ix := range statsIndexes {
		want, got := db.IndexStats("items", ix), db2.IndexStats("items", ix)
		if got == nil || !reflect.DeepEqual(*got, *want) {
			t.Errorf("stats for %s after store reopen = %+v, want %+v", ix, got, want)
		}
	}
	// No query has run on db2, so no index has been built: an estimate in
	// its first plan comes from the restored statistics.
	res, err := db2.Query("EXPLAIN SELECT * FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for _, row := range res.Rows {
		line, _ := row[0].AsText()
		plan = append(plan, line)
	}
	if txt := strings.Join(plan, "\n"); !strings.Contains(txt, "est_rows=") {
		t.Errorf("plan on the reopened store has no estimate:\n%s", txt)
	}
}
