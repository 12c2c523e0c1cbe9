package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// indexedDB builds a small two-table fixture with an index on
// candidates(time).
func indexedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE candidates (time INT, income FLOAT, diff FLOAT, gap INT, p FLOAT)")
	db.MustExec("CREATE TABLE temporal_inputs (time INT, income FLOAT)")
	rng := rand.New(rand.NewSource(7))
	var rows [][]Value
	for i := 0; i < 500; i++ {
		rows = append(rows, []Value{
			Int(int64(rng.Intn(8))),
			Float(40000 + rng.Float64()*40000),
			Float(rng.Float64() * 20000),
			Int(int64(rng.Intn(3))),
			Float(rng.Float64()),
		})
	}
	if err := db.InsertRows("candidates", rows); err != nil {
		t.Fatal(err)
	}
	var ti [][]Value
	for tp := 0; tp < 8; tp++ {
		ti = append(ti, []Value{Int(int64(tp)), Float(48000)})
	}
	if err := db.InsertRows("temporal_inputs", ti); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX candidates_time ON candidates (time)")
	return db
}

// queryBoth runs the query with the index enabled and disabled and fails on
// any divergence (result rows, order, or error).
func queryBoth(t *testing.T, db *DB, q string, args ...Value) *Result {
	t.Helper()
	indexed, ierr := db.Query(q, args...)
	db.DisableIndexScan = true
	scanned, serr := db.Query(q, args...)
	db.DisableIndexScan = false
	if (ierr == nil) != (serr == nil) {
		t.Fatalf("%s: indexed err=%v, scan err=%v", q, ierr, serr)
	}
	if ierr != nil {
		return nil
	}
	if !reflect.DeepEqual(indexed, scanned) {
		t.Fatalf("%s: indexed and scan paths differ:\nindexed: %+v\nscan:    %+v", q, indexed, scanned)
	}
	return indexed
}

func TestIndexScanMatchesFullScan(t *testing.T) {
	db := indexedDB(t)
	queries := []string{
		"SELECT * FROM candidates WHERE time = 3",
		"SELECT * FROM candidates WHERE 3 = time",
		"SELECT COUNT(*) FROM candidates WHERE time = 3 AND p > 0.5",
		"SELECT * FROM candidates WHERE time > 5",
		"SELECT * FROM candidates WHERE time >= 5 AND time < 7",
		"SELECT * FROM candidates WHERE time BETWEEN 2 AND 4",
		"SELECT * FROM candidates WHERE time = 3.0",  // float probe on INT column
		"SELECT * FROM candidates WHERE time = 3.5",  // never matches
		"SELECT * FROM candidates WHERE time = NULL", // 3VL: empty
		"SELECT * FROM candidates WHERE time = 99",
		"SELECT time, COUNT(*) FROM candidates WHERE time <= 2 GROUP BY time ORDER BY time",
		"SELECT * FROM candidates c WHERE c.time = 1 AND c.gap = 0",
		// Join with an indexed restriction on the first table.
		"SELECT COUNT(*) FROM candidates c INNER JOIN temporal_inputs ti ON c.time = ti.time WHERE c.time = 2",
		// Correlated EXISTS: the inner scan uses the index per outer row.
		`SELECT distinct time as t FROM temporal_inputs WHERE EXISTS
		 (SELECT * FROM candidates c WHERE c.time = t AND c.p > 0.9) ORDER BY t`,
	}
	for _, q := range queries {
		queryBoth(t, db, q)
	}
	// Parameterized probes agree as well.
	queryBoth(t, db, "SELECT * FROM candidates WHERE time = ?", Int(4))
	queryBoth(t, db, "SELECT * FROM candidates WHERE time BETWEEN ? AND ?", Int(1), Int(2))
}

func TestIndexScanSelectsRightRows(t *testing.T) {
	db := indexedDB(t)
	res, err := db.Query("SELECT COUNT(*) FROM candidates WHERE time = 3")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0][0].AsInt()
	if n == 0 {
		t.Fatal("fixture has no rows at time 3")
	}
	// Cross-check against a manual count.
	all, err := db.Query("SELECT time FROM candidates")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, row := range all.Rows {
		if v, _ := row[0].AsInt(); v == 3 {
			want++
		}
	}
	if n != want {
		t.Fatalf("indexed count = %d, manual count = %d", n, want)
	}
}

func TestIndexTypeErrorParity(t *testing.T) {
	db := indexedDB(t)
	// A text probe on a numeric column must error identically with and
	// without the index (the index path falls back to the scan).
	if _, err := db.Query("SELECT * FROM candidates WHERE time = 'x'"); err == nil {
		t.Fatal("text probe on INT column should error")
	}
	db.DisableIndexScan = true
	if _, err := db.Query("SELECT * FROM candidates WHERE time = 'x'"); err == nil {
		t.Fatal("text probe on INT column should error on the scan path too")
	}
}

func TestIndexResidualErrorParity(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE c (time INT, p FLOAT)")
	db.MustExec("CREATE INDEX c_time ON c (time)")
	db.MustExec("INSERT INTO c VALUES (1, 0.5), (2, 0.9)")
	// A row-independent error in a residual conjunct (unknown column) must
	// surface even when the indexed conjunct eliminates every row: the
	// sentinel row keeps the WHERE evaluation alive.
	for _, q := range []string{
		"SELECT * FROM c WHERE bogus = 1 AND time = -1",
		"SELECT * FROM c WHERE bogus = 1 AND time = NULL",
		"SELECT * FROM c WHERE bogus = 1 AND time > 100",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s: unknown residual column should error on the index path", q)
		}
	}
	// With the erroring conjunct on the right of AND, both paths
	// short-circuit on the false indexed conjunct and agree on no error.
	queryBoth(t, db, "SELECT * FROM c WHERE time > 100 AND bogus = 1")
}

func TestDeleteUpdateErrorsLeaveTableIntact(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
	// Row 1 matches, row 3 errors (INT vs TEXT comparison): the statement
	// must fail atomically, leaving all five rows in place exactly once.
	if _, err := db.Exec("DELETE FROM t WHERE (a = 1) OR (a = 3 AND a = 'x')"); err == nil {
		t.Fatal("mixed-type comparison should error")
	}
	res, err := db.Query("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("after failed DELETE: %d rows, want 5", len(res.Rows))
	}
	for i, row := range res.Rows {
		if v, _ := row[0].AsInt(); v != int64(i+1) {
			t.Fatalf("after failed DELETE: row %d = %v", i, row[0])
		}
	}
	if _, err := db.Exec("UPDATE t SET a = a + 100 WHERE (a = 1) OR (a = 3 AND a = 'x')"); err == nil {
		t.Fatal("mixed-type comparison should error")
	}
	res, _ = db.Query("SELECT a FROM t ORDER BY a")
	for i, row := range res.Rows {
		if v, _ := row[0].AsInt(); v != int64(i+1) {
			t.Fatalf("after failed UPDATE: row %d = %v (partial update leaked)", i, row[0])
		}
	}
}

func TestIndexMaintenanceAcrossMutations(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (2, 'dos'), (3, 'three')")
	res := queryBoth(t, db, "SELECT b FROM t WHERE a = 2 ORDER BY b")
	if len(res.Rows) != 2 {
		t.Fatalf("a=2 rows = %d", len(res.Rows))
	}
	db.MustExec("INSERT INTO t VALUES (2, 'zwei')")
	if res = queryBoth(t, db, "SELECT b FROM t WHERE a = 2"); len(res.Rows) != 3 {
		t.Fatalf("after insert: a=2 rows = %d", len(res.Rows))
	}
	db.MustExec("DELETE FROM t WHERE b = 'dos'")
	if res = queryBoth(t, db, "SELECT b FROM t WHERE a = 2"); len(res.Rows) != 2 {
		t.Fatalf("after delete: a=2 rows = %d", len(res.Rows))
	}
	db.MustExec("UPDATE t SET a = 9 WHERE b = 'two'")
	if res = queryBoth(t, db, "SELECT b FROM t WHERE a = 9"); len(res.Rows) != 1 {
		t.Fatalf("after update: a=9 rows = %d", len(res.Rows))
	}
	if res = queryBoth(t, db, "SELECT b FROM t WHERE a = 2"); len(res.Rows) != 1 {
		t.Fatalf("after update: a=2 rows = %d", len(res.Rows))
	}
}

func TestFailedMutationsKeepIndexVersion(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1), (2)")
	tb := db.tables["t"]
	v0 := tb.version
	if _, err := db.Exec("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Fatal("insert into unknown column should error")
	}
	if _, err := db.Exec("DELETE FROM t WHERE a = 'x'"); err == nil {
		t.Fatal("mixed-type delete should error")
	}
	if _, err := db.Exec("UPDATE t SET a = 'x'"); err == nil {
		t.Fatal("uncoercible update should error")
	}
	if _, err := db.Exec("DELETE FROM t WHERE a = 99"); err != nil {
		t.Fatal(err)
	}
	if tb.version != v0 {
		t.Fatalf("mutation-free statements bumped version %d -> %d (spurious index rebuilds)", v0, tb.version)
	}
	db.MustExec("INSERT INTO t VALUES (3)")
	if tb.version == v0 {
		t.Fatal("a real insert must bump the version")
	}
}

func TestIndexIgnoresNullKeys(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("INSERT INTO t VALUES (1), (NULL), (2), (NULL)")
	res := queryBoth(t, db, "SELECT * FROM t WHERE a >= 1")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (NULLs never match)", len(res.Rows))
	}
}

func TestIndexNegativeZeroEquality(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (x FLOAT)")
	db.MustExec("CREATE INDEX t_x ON t (x)")
	db.MustExec("INSERT INTO t VALUES (1.5), (-1 * 0.0)")
	res := queryBoth(t, db, "SELECT COUNT(*) FROM t WHERE x = 0.0")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("x = 0.0 matched %d rows, want 1 (-0.0 compares equal to 0.0)", n)
	}
}

func TestIndexNaNKeepsIndexPlan(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (x FLOAT)")
	db.MustExec("CREATE INDEX t_x ON t (x)")
	if err := db.InsertRows("t", [][]Value{{Float(5)}, {Float(math.NaN())}, {Float(2)}}); err != nil {
		t.Fatal(err)
	}
	// Compare treats NaN as equal to every number, which no sorted key
	// order can mirror: the NaN row stays out of the keys and every probe
	// adds it to its candidates, so the index keeps answering and both
	// paths agree (queryBoth fails on any divergence).
	for _, q := range []string{
		"SELECT COUNT(*) FROM t WHERE x = 5",
		"SELECT COUNT(*) FROM t WHERE x BETWEEN 1 AND 9",
		"SELECT COUNT(*) FROM t WHERE x < 5",
		"SELECT x FROM t WHERE x IN (2, 5)",
	} {
		assertPlanContains(t, db, q, "t_x (x")
		queryBoth(t, db, q)
	}
	// A NaN probe matches every number, which only the scan path answers.
	queryBoth(t, db, "SELECT COUNT(*) FROM t WHERE x = ?", Float(math.NaN()))
}

// TestNaNIndexPlan: a NaN in an indexed column changes no plan. Over 200
// rows with four NaN in a, each index keeps serving its equality in the
// structural order (t_a before t_b on a tie), and a probe of t_a admits the
// four NaN rows besides its one keyed match for the residual WHERE to judge.
func TestNaNIndexPlan(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a FLOAT, b INT)")
	rows := make([][]Value, 200)
	for i := range rows {
		a := Float(float64(i))
		if i%50 == 17 {
			a = Float(math.NaN())
		}
		rows[i] = []Value{a, Int(int64(i))}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("CREATE INDEX t_b ON t (b)")
	for q, plan := range map[string]string{
		"SELECT * FROM t WHERE b = 3":           "using index t_b (b=)",
		"SELECT * FROM t WHERE a = 7 AND b = 3": "using index t_a (a=)",
	} {
		assertPlanContains(t, db, q, plan)
		queryBoth(t, db, q)
	}
	// NaN rows match a = 7 (Compare calls NaN equal to every number).
	if res := queryBoth(t, db, "SELECT COUNT(*) FROM t WHERE a = 7"); res.Rows[0][0] != Int(5) {
		t.Fatalf("a = 7 counted %v, want 5 (one keyed row and four NaN)", res.Rows[0][0])
	}
}

func TestIndexIsNotAReservedWord(t *testing.T) {
	db := New()
	// Schemas may legitimately name a column "index"; CREATE/DROP INDEX
	// must stay parseable as a contextual keyword alongside it.
	db.MustExec("CREATE TABLE t (index INT, v FLOAT)")
	db.MustExec("INSERT INTO t VALUES (1, 0.5), (2, 0.7)")
	res, err := db.Query("SELECT index FROM t WHERE index = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	db.MustExec("CREATE INDEX t_index ON t (index)")
	res = queryBoth(t, db, "SELECT v FROM t WHERE index = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("indexed lookup rows = %d", len(res.Rows))
	}
	db.MustExec("DROP INDEX t_index")
}

func TestCreateDropIndexStatements(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("CREATE INDEX t_a ON t (a)")
	if _, err := db.Exec("CREATE INDEX t_a ON t (a)"); err == nil {
		t.Fatal("duplicate index name should error")
	}
	db.MustExec("CREATE INDEX IF NOT EXISTS t_a ON t (a)")
	if names, _ := db.IndexNames("t"); len(names) != 1 || names[0] != "t_a" {
		t.Fatalf("IndexNames = %v", names)
	}
	if _, err := db.Exec("CREATE INDEX nope ON missing (a)"); err == nil {
		t.Fatal("index on missing table should error")
	}
	if _, err := db.Exec("CREATE INDEX nope ON t (missing)"); err == nil {
		t.Fatal("index on missing column should error")
	}
	db.MustExec("DROP INDEX t_a")
	if names, _ := db.IndexNames("t"); len(names) != 0 {
		t.Fatalf("IndexNames after drop = %v", names)
	}
	if _, err := db.Exec("DROP INDEX t_a"); err == nil {
		t.Fatal("dropping a missing index should error")
	}
	db.MustExec("DROP INDEX IF EXISTS t_a")
}

func TestCreateTableAndIndexAPI(t *testing.T) {
	db := New()
	cols := []Column{{Name: "a", Type: IntType}, {Name: "b", Type: FloatType}}
	if err := db.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", cols); err == nil {
		t.Fatal("duplicate table should error")
	}
	if err := db.CreateIndex("t_a", "t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t_a2", "t", "nope"); err == nil {
		t.Fatal("missing column should error")
	}
	if err := db.InsertRows("t", [][]Value{{Int(1), Float(2)}, {Int(1), Float(3)}}); err != nil {
		t.Fatal(err)
	}
	res := queryBoth(t, db, "SELECT COUNT(*) FROM t WHERE a = 1")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("count = %d", n)
	}
}

func TestPreparedStatementReuse(t *testing.T) {
	st, err := Prepare("SELECT * FROM t WHERE a = ? ORDER BY b")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	// The same compiled statement runs against two different databases.
	for i := 0; i < 2; i++ {
		db := New()
		db.MustExec("CREATE TABLE t (a INT, b TEXT)")
		db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (1, 'z')")
		res, err := st.Query(db, Int(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("db %d: rows = %d", i, len(res.Rows))
		}
	}
}

func TestPreparedStatementArgChecks(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	st := MustPrepare("SELECT * FROM t WHERE a = ?")
	if _, err := st.Query(db); err == nil {
		t.Fatal("missing argument should error")
	}
	if _, err := st.Query(db, Int(1), Int(2)); err == nil {
		t.Fatal("extra argument should error")
	}
	if _, err := st.Exec(db, Int(1)); err == nil {
		t.Fatal("Exec of a SELECT should error")
	}
	if _, err := db.Query("SELECT * FROM t WHERE a = ?"); err == nil {
		t.Fatal("unbound parameter via Query should error")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (?)"); err == nil {
		t.Fatal("unbound parameter via Exec should error")
	}
}

func TestPreparedExecWithParams(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	ins := MustPrepare("INSERT INTO t VALUES (?, ?)")
	for i := 0; i < 3; i++ {
		n, err := ins.Exec(db, Int(int64(i)), Text(fmt.Sprintf("row%d", i)))
		if err != nil || n != 1 {
			t.Fatalf("insert %d: n=%d err=%v", i, n, err)
		}
	}
	del := MustPrepare("DELETE FROM t WHERE a >= ?")
	n, err := del.Exec(db, Int(1))
	if err != nil || n != 2 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	res, err := db.Query("SELECT b FROM t")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("rows=%v err=%v", res, err)
	}
}

func TestQueryWithInlineArgs(t *testing.T) {
	db := indexedDB(t)
	res, err := db.Query("SELECT COUNT(*) FROM candidates WHERE time = ? AND p > ?", Int(2), Float(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Query("SELECT COUNT(*) FROM candidates WHERE time = 2 AND p > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, ref.Rows) {
		t.Fatalf("parameterized %v != literal %v", res.Rows, ref.Rows)
	}
}

// TestConcurrentIndexedReads exercises the lazy index rebuild under many
// concurrent readers (run with -race): the first readers after an insert
// race to rebuild, later ones must see a consistent structure.
func TestConcurrentIndexedReads(t *testing.T) {
	db := indexedDB(t)
	want, err := db.Query("SELECT COUNT(*) FROM candidates WHERE time = 3")
	if err != nil {
		t.Fatal(err)
	}
	st := MustPrepare("SELECT COUNT(*) FROM candidates WHERE time = ?")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := st.Query(db, Int(3))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- fmt.Errorf("got %v, want %v", res.Rows, want.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesDuringDDL hammers one DB with concurrent prepared
// queries, an indexed equi-join, index DDL and inserts. Run under -race in
// CI: it guards the lazy index-build latch and the built key structures,
// which read-locked queries share with one another, and the join's read of
// the inner index's key count.
func TestConcurrentQueriesDuringDDL(t *testing.T) {
	db := explainFixture(t)
	st := MustPrepare("SELECT COUNT(*) FROM candidates WHERE time = ? AND gap <= 1")
	st2 := MustPrepare("SELECT * FROM candidates WHERE time = 1 OR gap = 2")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := st.Query(db, Int(int64(i%4))); err != nil {
					t.Error(err)
					return
				}
				if _, err := st2.Query(db); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // index churn: plans must never see a dropped index
		defer wg.Done()
		for i := 0; i < 40; i++ {
			db.MustExec("CREATE INDEX tmp_income ON candidates (income)")
			db.MustExec("DROP INDEX tmp_income")
		}
	}()
	wg.Add(1)
	go func() { // join strategy read from the inner index's key count
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Query("SELECT COUNT(*) FROM candidates c INNER JOIN temporal_inputs ti ON ti.time = c.time"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // data churn: index rebuilds on the next query
		defer wg.Done()
		for i := 0; i < 40; i++ {
			rows := [][]Value{{Int(int64(i % 4)), Float(1), Float(1), Int(int64(i % 3)), Float(0.5)}}
			if err := db.InsertRows("candidates", rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
