package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"justintime/internal/sqldb"
)

func fixtureDB(t testing.TB) *sqldb.DB {
	t.Helper()
	db := sqldb.New()
	db.MustExec("CREATE TABLE items (id INT, name TEXT, score FLOAT, ok BOOL)")
	db.MustExec("INSERT INTO items VALUES (1, 'alpha', 1.25, TRUE)")
	db.MustExec("INSERT INTO items VALUES (2, NULL, NULL, FALSE)")
	db.MustExec("INSERT INTO items VALUES (3, 'gamma', -7.5, NULL)")
	db.MustExec("CREATE TABLE empty (x INT, y TEXT)")
	db.MustExec("CREATE INDEX items_id ON items (id)")
	// Composite: rides the snapshot/WAL wire as the comma-joined "id,score".
	db.MustExec("CREATE INDEX items_id_score ON items (id, score)")
	return db
}

func sameDump(t *testing.T, a, b *sqldb.DB) {
	t.Helper()
	da, dbb := a.Dump(), b.Dump()
	if !reflect.DeepEqual(da, dbb) {
		t.Fatalf("databases differ:\n%#v\nvs\n%#v", da, dbb)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := fixtureDB(t)
	path := filepath.Join(t.TempDir(), "snap.db")
	if err := WriteSnapshot(path, db.Dump(), 7); err != nil {
		t.Fatal(err)
	}
	d, epoch, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d, want 7", epoch)
	}
	db2, err := sqldb.NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	sameDump(t, db, db2)
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file after snapshot write")
	}
}

func TestSnapshotAtomicReplace(t *testing.T) {
	db := fixtureDB(t)
	path := filepath.Join(t.TempDir(), "snap.db")
	if err := WriteSnapshot(path, db.Dump(), 1); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO items VALUES (4, 'delta', 0.5, TRUE)")
	if err := WriteSnapshot(path, db.Dump(), 2); err != nil {
		t.Fatal(err)
	}
	d, epoch, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	db2, err := sqldb.NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	sameDump(t, db, db2)
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	db := fixtureDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.db")
	if err := WriteSnapshot(path, db.Dump(), 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the snapshot (unlike the WAL) must hard-error.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	// A truncated snapshot (missing end marker) must also hard-error.
	if err := os.WriteFile(path, raw[:len(raw)-12], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(path); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// mutate applies a deterministic scripted mutation i to db.
func mutate(t *testing.T, db *sqldb.DB, i int) {
	t.Helper()
	var err error
	switch i % 5 {
	case 0:
		_, err = db.Exec("INSERT INTO items VALUES (?, ?, ?, ?)",
			sqldb.Int(int64(100+i)), sqldb.Text(strings.Repeat("x", i%7+1)),
			sqldb.Float(float64(i)*0.5), sqldb.Bool(i%2 == 0))
	case 1:
		_, err = db.Exec("UPDATE items SET score = score + 1 WHERE id >= ?", sqldb.Int(int64(i%4)))
	case 2:
		_, err = db.Exec("DELETE FROM items WHERE id = ?", sqldb.Int(int64(100+i-7)))
	case 3:
		err = db.InsertRows("items", [][]sqldb.Value{
			{sqldb.Int(int64(1000 + i)), sqldb.Null(), sqldb.Float(3.14), sqldb.Bool(false)},
		})
	case 4:
		_, err = db.Exec("INSERT INTO empty VALUES (?, ?)", sqldb.Int(int64(i)), sqldb.Text("t"))
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreCreateOpenReplay(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncBatched} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := fixtureDB(t)
			st, err := Create(dir, db, Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				mutate(t, db, i)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			db2, st2, err := Open(dir, Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			sameDump(t, db, db2)
		})
	}
}

func TestStoreCheckpointFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mutate(t, db, i)
	}
	if st.WALSize() <= walHeaderLen {
		t.Fatal("WAL did not grow")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.WALSize() != walHeaderLen {
		t.Fatalf("WAL size after checkpoint = %d, want %d", st.WALSize(), walHeaderLen)
	}
	// Mutations after the checkpoint land in the fresh WAL.
	mutate(t, db, 20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameDump(t, db, db2)
}

// TestStaleEpochWALDiscarded simulates a crash between the checkpoint's
// snapshot rename and its WAL reset: the snapshot holds the new epoch while
// the WAL still holds the old epoch's records. Opening must not double-apply
// them.
func TestStaleEpochWALDiscarded(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mutate(t, db, i)
	}
	// Preserve the pre-checkpoint WAL (epoch 1, six records).
	staleWAL, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil { // snapshot now epoch 2
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// "Crash" restored the stale WAL next to the new snapshot.
	if err := os.WriteFile(filepath.Join(dir, WALFile), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameDump(t, db, db2)
}

func TestCreateDropsInheritedWAL(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, db, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Create over the same directory (a new session reusing the
	// path) must not replay the first life's WAL.
	fresh := fixtureDB(t)
	st2, err := Create(dir, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	sameDump(t, fresh, db3)
}

func TestRemoveTempFilesOnOpen(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a crash mid-snapshot-write: a stray .tmp next to the real files.
	stray := filepath.Join(dir, SnapshotFile+".tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stale .tmp survived Open")
	}
}

func TestStoreRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	db := fixtureDB(t)
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := Remove(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("store directory survived Remove")
	}
}

func TestWALBytesMetricHook(t *testing.T) {
	dir := t.TempDir()
	db := fixtureDB(t)
	var seen int64
	st, err := Create(dir, db, Options{OnWALWrite: func(n int) { seen += int64(n) }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 5; i++ {
		mutate(t, db, i)
	}
	if seen == 0 {
		t.Fatal("OnWALWrite never fired")
	}
	if got := st.WALSize() - walHeaderLen; got != seen {
		t.Fatalf("hook saw %d bytes, WAL grew %d", seen, got)
	}
}

func TestPartialInsertReplaysIdentically(t *testing.T) {
	dir := t.TempDir()
	db := sqldb.New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("CREATE TABLE src (a INT, b INT)")
	db.MustExec("INSERT INTO src VALUES (1, 1), (2, 2)")
	st, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// INSERT ... SELECT with an arity mismatch appends nothing here (the
	// mismatch is caught per-row before any append for two-column rows),
	// but a partial multi-row VALUES list does: the second row's text
	// cannot coerce to INT after the first row landed.
	if _, err := db.Exec("INSERT INTO t VALUES (1), ('nope')"); err == nil {
		t.Fatal("expected coercion error")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sameDump(t, db, db2)
}
