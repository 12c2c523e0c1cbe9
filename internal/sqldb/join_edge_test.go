package sqldb

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// joinEdgeDB builds the leftjoin fixture plus an index on the usual inner
// join column, so the same queries can exercise the index-nested-loop path.
func joinEdgeDB(t *testing.T, emptyInner bool) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE orders (id INT, cust INT, total FLOAT)")
	db.MustExec("CREATE TABLE customers (id INT, name TEXT)")
	if !emptyInner {
		db.MustExec("INSERT INTO customers VALUES (1, 'ann'), (2, 'bob'), (NULL, 'ghost')")
	}
	db.MustExec("INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.5), (12, 3, 9.0), (13, NULL, 1.0)")
	db.MustExec("CREATE INDEX customers_id ON customers (id)")
	return db
}

// runJoinAllPaths executes q as planned and under every join strategy —
// index nested loop (hash disabled), hash (index disabled), and plain nested
// loop (both disabled) — failing on any divergence, and returns the common
// result.
func runJoinAllPaths(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	run := func(disableIndex, disableHash bool) *Result {
		db.DisableIndexScan = disableIndex
		db.DisableHashJoin = disableHash
		defer func() { db.DisableIndexScan = false; db.DisableHashJoin = false }()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s (index=%v hash=%v): %v", q, !disableIndex, !disableHash, err)
		}
		return res
	}
	planned := run(false, false)
	indexed := run(false, true)
	hashed := run(true, false)
	nested := run(true, true)
	if !reflect.DeepEqual(planned, hashed) {
		t.Fatalf("%s: planned join diverges from hash join:\nplanned: %+v\nhash:    %+v", q, planned, hashed)
	}
	if !reflect.DeepEqual(indexed, hashed) {
		t.Fatalf("%s: index join diverges from hash join:\nindex: %+v\nhash:  %+v", q, indexed, hashed)
	}
	if !reflect.DeepEqual(hashed, nested) {
		t.Fatalf("%s: hash join diverges from nested loop:\nhash:   %+v\nnested: %+v", q, hashed, nested)
	}
	return planned
}

// assertPlanContains EXPLAINs q and requires the fragment in the plan text,
// so these tests provably exercise the join shape they claim to.
func assertPlanContains(t *testing.T, db *DB, q, fragment string) {
	t.Helper()
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if txt := resultPlanText(res); !strings.Contains(txt, fragment) {
		t.Fatalf("%s: plan lacks %q:\n%s", q, fragment, txt)
	}
}

func TestJoinNullKeysAllPaths(t *testing.T) {
	db := joinEdgeDB(t, false)
	const inner = `SELECT o.id, c.name FROM orders o INNER JOIN customers c ON o.cust = c.id ORDER BY o.id`
	// Four orders outnumber the two keyed customers, so the planner hashes;
	// with the hash join off, the same join probes customers_id.
	assertPlanContains(t, db, inner, "hash join")
	db.DisableHashJoin = true
	assertPlanContains(t, db, inner, "index nested loop (customers_id)")
	db.DisableHashJoin = false
	res := runJoinAllPaths(t, db, inner)
	// NULL never equi-joins from either side: order 13 (NULL cust) and the
	// NULL-id 'ghost' customer must both vanish from the inner join.
	if len(res.Rows) != 2 {
		t.Fatalf("inner join rows = %d, want 2 (NULL keys never match)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if s, _ := row[1].AsText(); s == "ghost" {
			t.Fatal("NULL-keyed inner row matched an outer row")
		}
	}

	const left = `SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.cust = c.id ORDER BY o.id`
	res = runJoinAllPaths(t, db, left)
	if len(res.Rows) != 4 {
		t.Fatalf("left join rows = %d, want 4", len(res.Rows))
	}
	// Orders 12 (no such customer) and 13 (NULL key) pad with NULLs.
	if !res.Rows[2][1].IsNull() || !res.Rows[3][1].IsNull() {
		t.Fatalf("unmatched/NULL-keyed outer rows must pad: %v %v", res.Rows[2][1], res.Rows[3][1])
	}
}

func TestJoinEmptyInnerAllPaths(t *testing.T) {
	db := joinEdgeDB(t, true)
	const inner = `SELECT o.id, c.name FROM orders o INNER JOIN customers c ON o.cust = c.id`
	if res := runJoinAllPaths(t, db, inner); len(res.Rows) != 0 {
		t.Fatalf("inner join against empty table rows = %d, want 0", len(res.Rows))
	}
	const left = `SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.cust = c.id ORDER BY o.id`
	res := runJoinAllPaths(t, db, left)
	if len(res.Rows) != 4 {
		t.Fatalf("left join against empty table rows = %d, want 4", len(res.Rows))
	}
	for i, row := range res.Rows {
		if !row[1].IsNull() {
			t.Fatalf("row %d: empty inner table must pad every outer row, got %v", i, row[1])
		}
	}
	// The index join must stay chosen even when the inner table is empty.
	assertPlanContains(t, db, left, "index nested loop (customers_id)")
}

// TestIndexJoinKeyFamilyParity pins the subtle contract that the index
// nested-loop join matches exactly what the hash join matches — including
// the hash join's key-family behavior where a BOOL column never matches a
// numeric probe even though Compare would — by running mixed-type join keys
// through every path.
func TestIndexJoinKeyFamilyParity(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE l (k INT)")
	db.MustExec("CREATE TABLE flags (b BOOL, tag TEXT)")
	db.MustExec("INSERT INTO l VALUES (0), (1), (2), (NULL)")
	db.MustExec("INSERT INTO flags VALUES (TRUE, 'yes'), (FALSE, 'no'), (NULL, 'null')")
	db.MustExec("CREATE INDEX flags_b ON flags (b)")
	runJoinAllPaths(t, db, `SELECT l.k, f.tag FROM l LEFT JOIN flags f ON l.k = f.b ORDER BY l.k`)
	// Float keys with a stored INT column and vice versa DO match across
	// the numeric family.
	db.MustExec("CREATE TABLE r (k FLOAT)")
	db.MustExec("INSERT INTO r VALUES (1.0), (2.5)")
	db.MustExec("CREATE INDEX r_k ON r (k)")
	res := runJoinAllPaths(t, db, `SELECT l.k, r.k FROM l INNER JOIN r ON l.k = r.k`)
	if len(res.Rows) != 1 {
		t.Fatalf("numeric-family join rows = %d, want 1 (INT 1 = FLOAT 1.0)", len(res.Rows))
	}
}

// TestJoinNaNKeysAllPaths: the hash join groups keys by Value.key(), under
// which a NaN key equals only NaN. The index join must match the same pairs
// although NaN rows sit outside the index keys, in nanRows.
func TestJoinNaNKeysAllPaths(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE l (id INT, k FLOAT)")
	db.MustExec("CREATE TABLE r (k FLOAT, tag TEXT)")
	nan := Float(math.NaN())
	if err := db.InsertRows("l", [][]Value{{Int(1), Float(1)}, {Int(2), nan}, {Int(3), Float(2.5)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", [][]Value{
		{Float(1), Text("one")}, {nan, Text("nan")}, {Float(2.5), Text("two")}, {nan, Text("nan2")}, {Float(4), Text("four")},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX r_k ON r (k)")
	const inner = `SELECT l.id, r.tag FROM l INNER JOIN r ON l.k = r.k ORDER BY l.id`
	const left = `SELECT l.id, r.tag FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.id`
	for _, q := range []string{inner, left} {
		assertPlanContains(t, db, q, "index nested loop (r_k)")
		if res := runJoinAllPaths(t, db, q); len(res.Rows) != 4 {
			t.Fatalf("%s: rows = %d, want 4 (the NaN key joins both NaN rows)", q, len(res.Rows))
		}
	}
}
