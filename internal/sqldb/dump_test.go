package sqldb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"justintime/internal/sqldb/pager"
)

func dumpFixtureDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE items (id INT, name TEXT, score FLOAT, ok BOOL)")
	db.MustExec("INSERT INTO items VALUES (1, 'a', 1.5, TRUE)")
	db.MustExec("INSERT INTO items VALUES (2, NULL, NULL, FALSE)")
	db.MustExec("CREATE TABLE empty (x INT)")
	db.MustExec("CREATE INDEX items_id ON items (id)")
	db.MustExec("CREATE INDEX items_score ON items (score)")
	return db
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	db := dumpFixtureDB(t)
	d := db.Dump()
	db2, err := NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, db2.Dump()) {
		t.Fatalf("restored dump differs:\n%#v\nvs\n%#v", d, db2.Dump())
	}
	// The restored index declarations must actually serve queries.
	res, err := db2.Query("SELECT name FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if s, _ := res.Rows[0][0].AsText(); s != "a" {
		t.Fatalf("name = %v", res.Rows[0][0])
	}
}

// TestNewFromDumpAdoptsPagedStores: a dumped table whose Paged store is set
// is registered on that store as it is, and a failing restore closes every
// paged store it was handed.
func TestNewFromDumpAdoptsPagedStores(t *testing.T) {
	pool := pager.NewPool(8)
	paged := func() *PagedTable {
		pt := NewPagedTableFS(nil, pool, filepath.Join(t.TempDir(), "spill.db"))
		if err := pt.Append([][]Value{{Int(1), Text("a")}, {Int(2), Text("b")}}); err != nil {
			t.Fatal(err)
		}
		return pt
	}
	cols := []Column{{Name: "id", Type: IntType}, {Name: "name", Type: TextType}}

	pt := paged()
	db, err := NewFromDump(&Dump{
		Tables:  []TableDump{{Name: "p", Cols: cols, Paged: pt}},
		Indexes: []IndexDump{{Name: "p_id", Table: "p", Column: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Dump().Tables[0].Paged; got != pt {
		t.Fatalf("restored table is not backed by the dumped store: %v", got)
	}
	res, err := db.Query("SELECT name FROM p WHERE id = 2")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query on the adopted store: %v, %v", res, err)
	}
	if err := db.ClosePagedStores(); err != nil {
		t.Fatal(err)
	}

	pt = paged()
	_, err = NewFromDump(&Dump{
		Tables:  []TableDump{{Name: "p", Cols: cols, Paged: pt}},
		Indexes: []IndexDump{{Name: "p_x", Table: "p", Column: "x"}},
	})
	if err == nil {
		t.Fatal("restore with an index on an unknown column succeeded")
	}
	if _, err := pt.Get(0); err == nil {
		t.Error("failed restore left its paged store open")
	}
	if s := pool.Stats(); s.Pinned != 0 {
		t.Errorf("%d frames still pinned", s.Pinned)
	}
}

func TestDumpIsIsolatedFromLaterWrites(t *testing.T) {
	db := dumpFixtureDB(t)
	d := db.Dump()
	// UPDATE mutates rows in place; the dump must not see it.
	db.MustExec("UPDATE items SET score = 99 WHERE id = 1")
	db.MustExec("INSERT INTO items VALUES (3, 'c', 3.0, TRUE)")
	for _, td := range d.Tables {
		if td.Name != "items" {
			continue
		}
		if len(td.Rows) != 2 {
			t.Fatalf("dump rows = %d, want 2", len(td.Rows))
		}
		if f, _ := td.Rows[0][2].AsFloat(); f != 1.5 {
			t.Fatalf("dump saw in-place update: score = %v", td.Rows[0][2])
		}
	}
	// And mutating a restored DB must not affect the origin.
	db2, err := NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	db2.MustExec("UPDATE items SET name = 'z'")
	res, err := db.Query("SELECT name FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("origin mutated through restored DB: %v", res.Rows[0][0])
	}
}

func TestCheckpointWithExcludesWriters(t *testing.T) {
	db := dumpFixtureDB(t)
	done := make(chan struct{})
	err := db.CheckpointWith(func(d *Dump) error {
		// A concurrent writer must block until fn returns.
		go func() {
			db.MustExec("INSERT INTO items VALUES (9, 'x', 0.0, TRUE)")
			close(done)
		}()
		select {
		case <-done:
			return fmt.Errorf("writer ran during checkpoint")
		default:
		}
		for _, td := range d.Tables {
			if td.Name == "items" && len(td.Rows) != 2 {
				return fmt.Errorf("dump rows = %d, want 2", len(td.Rows))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
}

// recordingLogger captures the hook calls for assertions.
type recordingLogger struct {
	events []string
	fail   bool
}

func (l *recordingLogger) LogExec(sql string, params []Value) error {
	if l.fail {
		return fmt.Errorf("log sink down")
	}
	l.events = append(l.events, fmt.Sprintf("exec:%s/%d", sql, len(params)))
	return nil
}

func (l *recordingLogger) LogInsertRows(table string, rows [][]Value) error {
	if l.fail {
		return fmt.Errorf("log sink down")
	}
	l.events = append(l.events, fmt.Sprintf("insertrows:%s/%d", table, len(rows)))
	return nil
}

func (l *recordingLogger) LogCreateTable(name string, cols []Column) error {
	l.events = append(l.events, fmt.Sprintf("createtable:%s/%d", name, len(cols)))
	return nil
}

func (l *recordingLogger) LogCreateIndex(name, table, column string) error {
	l.events = append(l.events, fmt.Sprintf("createindex:%s:%s.%s", name, table, column))
	return nil
}

func TestMutationLoggerHook(t *testing.T) {
	db := New()
	rl := &recordingLogger{}
	db.SetLogger(rl)

	db.MustExec("CREATE TABLE u (a INT, b TEXT)")
	db.MustExec("INSERT INTO u VALUES (?, ?)", Int(1), Text("x"))
	if err := db.InsertRows("u", [][]Value{{Int(2), Text("y")}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("u_a", "u", "a"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("UPDATE u SET b = 'z' WHERE a = 1")
	db.MustExec("DELETE FROM u WHERE a = 2")

	// Failures that mutate nothing are not logged.
	if _, err := db.Exec("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := db.Query("SELECT * FROM u"); err != nil {
		t.Fatal(err) // reads never log
	}

	want := []string{
		"exec:CREATE TABLE u (a INT, b TEXT)/0",
		"exec:INSERT INTO u VALUES (?, ?)/2",
		"insertrows:u/1",
		"createindex:u_a:u.a",
		"exec:UPDATE u SET b = 'z' WHERE a = 1/0",
		"exec:DELETE FROM u WHERE a = 2/0",
	}
	if !reflect.DeepEqual(rl.events, want) {
		t.Fatalf("events = %v\nwant %v", rl.events, want)
	}
}

func TestMutationLoggerTypedCreateTable(t *testing.T) {
	db := New()
	rl := &recordingLogger{}
	db.SetLogger(rl)
	if err := db.CreateTable("t", []Column{{Name: "a", Type: IntType}}); err != nil {
		t.Fatal(err)
	}
	want := []string{"createtable:t/1"}
	if !reflect.DeepEqual(rl.events, want) {
		t.Fatalf("events = %v, want %v", rl.events, want)
	}
}

func TestMutationLoggerErrorSurfaces(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE u (a INT)")
	rl := &recordingLogger{fail: true}
	db.SetLogger(rl)
	n, err := db.Exec("INSERT INTO u VALUES (1)")
	if err == nil {
		t.Fatal("logger failure not surfaced")
	}
	if n != 1 {
		t.Fatalf("n = %d, want 1 (mutation stays applied)", n)
	}
	if err := db.InsertRows("u", [][]Value{{Int(2)}}); err == nil {
		t.Fatal("logger failure not surfaced for InsertRows")
	}
	// Both rows are in memory despite the log failures.
	res, qerr := db.Query("SELECT COUNT(*) FROM u")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if c, _ := res.Rows[0][0].AsInt(); c != 2 {
		t.Fatalf("count = %d, want 2", c)
	}
}
