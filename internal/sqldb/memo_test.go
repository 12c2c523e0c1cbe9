package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// memoDB is a small fixture for subquery memoisation: no indexes, so every
// subquery execution is one full scan, and NULLs on both sides.
func memoDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE a (k INT, x INT, g INT)")
	db.MustExec("CREATE TABLE b (x INT, y INT)")
	db.MustExec("CREATE TABLE e (k INT, x INT)")
	db.MustExec("INSERT INTO a VALUES (1, 1, 0), (2, 2, 0), (3, NULL, 1), (4, 0, 1), (5, 2, 1)")
	db.MustExec("INSERT INTO b VALUES (1, 10), (2, 20), (2, 21), (NULL, 30)")
	return db
}

// memoQuery runs sql memoised and unmemoised, requires identical results or
// identical errors, and returns the memoised outcome.
func memoQuery(t *testing.T, db *DB, sql string, args ...Value) (*Result, error) {
	t.Helper()
	res, err := db.Query(sql, args...)
	direct, derr := queryNoMemo(t, db, sql, args)
	if fmt.Sprint(err) != fmt.Sprint(derr) {
		t.Fatalf("%s: memoised err=%v, unmemoised err=%v", sql, err, derr)
	}
	if !reflect.DeepEqual(res, direct) {
		t.Fatalf("%s:\nmemoised:   %+v\nunmemoised: %+v", sql, res, direct)
	}
	return res, err
}

func memoRows(t *testing.T, db *DB, sql string, args ...Value) string {
	t.Helper()
	res, err := memoQuery(t, db, sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var rows []string
	for _, r := range res.Rows {
		rows = append(rows, fmt.Sprint(r))
	}
	return strings.Join(rows, " ")
}

func TestMemoScalarCardinalityErrorIsLazy(t *testing.T) {
	db := memoDB(t)
	const sub = "(SELECT y FROM b WHERE b.x = 2)" // two rows
	if got := memoRows(t, db, "SELECT k FROM e WHERE x = "+sub); got != "" {
		t.Fatalf("empty outer side returned %q", got)
	}
	_, err := memoQuery(t, db, "SELECT k FROM a WHERE x = "+sub)
	if err == nil || !strings.Contains(err.Error(), "scalar subquery returned 2 rows") {
		t.Fatalf("non-empty outer side: err = %v, want the cardinality error", err)
	}
}

func TestMemoInnerColumnShadowsOuter(t *testing.T) {
	db := memoDB(t)
	// x resolves to b.x: the subquery is uncorrelated and true for every a
	// row. Resolved outward to a.x it would keep only k = 1.
	q := "SELECT k FROM a WHERE EXISTS (SELECT * FROM b WHERE x = 1)"
	if got := memoRows(t, db, q); got != "[1] [2] [3] [4] [5]" {
		t.Fatalf("got %s", got)
	}
	assertPlanContains(t, db, q, "memoised: uncorrelated")
	// g exists only in a, so it is an outer reference.
	q = "SELECT k FROM a WHERE EXISTS (SELECT * FROM b WHERE y = 10 AND g = 0)"
	if got := memoRows(t, db, q); got != "[1] [2]" {
		t.Fatalf("got %s", got)
	}
	assertPlanContains(t, db, q, "memoised on (g)")
	// Inside its own expression the alias g is busy, so that g reads a.g:
	// the subquery is correlated although g names one of its aliases.
	q = "SELECT k, (SELECT g + 1 AS g FROM b WHERE y = 10) FROM a"
	if got := memoRows(t, db, q); got != "[1 2] [2 2] [3 3] [4 3] [5 3]" {
		t.Fatalf("got %s", got)
	}
	assertPlanContains(t, db, q, "memoised on (g)")
	// An ON condition sees only the relations joined so far: k is a2's
	// column later on, but in the first ON it can only be the outer a.k.
	q = "SELECT k, (SELECT COUNT(*) FROM b b1 JOIN b b2 ON b2.x = k JOIN a a2 ON a2.x = b2.x) FROM a"
	if got := memoRows(t, db, q); got != "[1 4] [2 16] [3 0] [4 0] [5 0]" {
		t.Fatalf("got %s", got)
	}
	assertPlanContains(t, db, q, "memoised on (k)")
	// A derived table's columns are known only at run time: not memoised.
	q = "SELECT k FROM a WHERE EXISTS (SELECT * FROM (SELECT x FROM b) d WHERE d.x = a.x)"
	if got := memoRows(t, db, q); got != "[1] [2] [5]" {
		t.Fatalf("got %s", got)
	}
	assertPlanContains(t, db, q, "not memoised")
}

func TestMemoNullsKeepThreeValuedLogic(t *testing.T) {
	db := memoDB(t)
	// A NULL outer value is its own key and matches nothing.
	if got := memoRows(t, db, "SELECT k, (SELECT COUNT(*) FROM b WHERE b.x = a.x) FROM a"); got != "[1 1] [2 2] [3 0] [4 0] [5 2]" {
		t.Fatalf("correlated count: got %s", got)
	}
	// b.x holds a NULL: x <= ALL is never TRUE, only FALSE (x = 2) or
	// NULL, and NOT NULL is still NULL.
	if got := memoRows(t, db, "SELECT k FROM a WHERE NOT (x <= ALL (SELECT x FROM b))"); got != "[2] [5]" {
		t.Fatalf("NOT ALL over a NULL: got %s", got)
	}
	if got := memoRows(t, db, "SELECT k FROM a WHERE x <= ALL (SELECT x FROM b WHERE x IS NOT NULL)"); got != "[1] [4]" {
		t.Fatalf("ALL without the NULL: got %s", got)
	}
	if got := memoRows(t, db, "SELECT k FROM a WHERE x NOT IN (SELECT x FROM b)"); got != "" {
		t.Fatalf("NOT IN over a NULL: got %s", got)
	}
	// Correlated on a NULL-bearing column: for x = NULL the subquery is
	// empty, and ANY over an empty set is FALSE.
	if got := memoRows(t, db, "SELECT k FROM a WHERE x >= ANY (SELECT b.x FROM b WHERE b.y < a.x * 15)"); got != "[1] [2] [5]" {
		t.Fatalf("correlated ANY: got %s", got)
	}
}

func TestMemoKeysAreExact(t *testing.T) {
	db := memoDB(t)
	// t takes Int(1), Float(1), Bool(true) and NULL on different rows; all
	// compare equal or unknown, but the subquery returns each one as is.
	res, err := memoQuery(t, db, `SELECT k, (SELECT t), CASE WHEN k = 1 THEN 1 WHEN k = 2 THEN 1.0
		WHEN k = 3 THEN TRUE ELSE NULL END AS t FROM a`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Type{IntType, FloatType, BoolType, NullType, NullType}
	for i, row := range res.Rows {
		if row[1].Type() != want[i] || row[1] != row[2] {
			t.Errorf("row %d: subquery returned %v (%s), want %v", i, row[1], row[1].Type(), row[2])
		}
	}

	keys := map[string]Value{}
	for _, v := range []Value{Null(), Int(0), Int(1), Float(1), Float(0), Float(math.Copysign(0, -1)), Bool(true), Bool(false), Text(""), Text("\x01")} {
		k := string(appendMemoKey(nil, v))
		if prev, dup := keys[k]; dup {
			t.Errorf("%v (%s) and %v (%s) share a memo key", prev, prev.Type(), v, v.Type())
		}
		keys[k] = v
	}
}

func TestMemoOuterAggregateInHaving(t *testing.T) {
	db := memoDB(t)
	// n is the outer COUNT(*), read through its select alias: group g = 0
	// has 2 rows and b holds x = 2; group g = 1 has 3 rows and no x = 3.
	q := "SELECT g, COUNT(*) AS n FROM a GROUP BY g HAVING EXISTS (SELECT * FROM b WHERE b.x = n)"
	if got := memoRows(t, db, q); got != "[0 2]" {
		t.Fatalf("got %s", got)
	}
	assertPlanContains(t, db, q, "memoised on (n)")
	// An aggregate written inside the subquery belongs to no grouped level
	// and fails alike either way.
	_, err := memoQuery(t, db, "SELECT g FROM a GROUP BY g HAVING EXISTS (SELECT * FROM b WHERE b.x < COUNT(*))")
	if err == nil {
		t.Fatal("an aggregate outside its grouped query should error")
	}
}

func TestMemoIsPerExecution(t *testing.T) {
	db := memoDB(t)
	st := MustPrepare("SELECT k FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = ?)")
	if res := run0(t, st, db, Int(1)); len(res.Rows) != 5 {
		t.Fatalf("x = 1: %d rows, want 5", len(res.Rows))
	}
	if res := run0(t, st, db, Int(9)); len(res.Rows) != 0 {
		t.Fatalf("x = 9 reused the previous execution's result: %d rows, want 0", len(res.Rows))
	}
}

// TestMemoRunsUncorrelatedOnce counts full scans: the outer scan plus one
// scan of b, where direct execution scans b once per row of a.
func TestMemoRunsUncorrelatedOnce(t *testing.T) {
	db := memoDB(t)
	const q = "SELECT COUNT(*) FROM a WHERE x > ALL (SELECT x FROM b WHERE y > 15)"
	scans := func(run func()) uint64 {
		before := PlanCounters()["full_scan"]
		run()
		return PlanCounters()["full_scan"] - before
	}
	if n := scans(func() { queryRows(t, db, q) }); n != 2 {
		t.Fatalf("memoised run made %d full scans, want 2", n)
	}
	if n := scans(func() { queryNoMemo(t, db, q, nil) }); n != 6 {
		t.Fatalf("direct run made %d full scans, want 6", n)
	}
}
