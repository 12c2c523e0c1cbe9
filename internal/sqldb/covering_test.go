package sqldb

import (
	"path/filepath"
	"testing"

	"justintime/internal/sqldb/pager"
)

// TestCoveringScanZeroPageFaults is the paged-storage acceptance test for
// covering scans: once the index is built, a query answerable entirely from
// index key tuples must not fault a single page back in — that is the whole
// point of covering. The full scan of the same query faults.
func TestCoveringScanZeroPageFaults(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE candidates (time INT, income FLOAT)")
	rows := make([][]Value, 2000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i % 8)), Float(float64(i))}
	}
	if err := db.InsertRows("candidates", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX candidates_time ON candidates (time)")

	pool := pager.NewPool(4)
	if err := db.PageTable("candidates", pool, filepath.Join(t.TempDir(), "spill.db")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.ClosePagedStores() })

	const q = "SELECT COUNT(*) FROM candidates WHERE time = 3"
	assertPlanContains(t, db, q, "covering index candidates_time (time=)")

	count := func() int64 {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := res.Rows[0][0].AsInt()
		return n
	}
	want := count() // builds the index (faults pages while scanning rows)

	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	m0 := pool.Stats().Misses
	if got := count(); got != want {
		t.Fatalf("covering count = %d, want %d", got, want)
	}
	if faults := pool.Stats().Misses - m0; faults != 0 {
		t.Fatalf("covering scan faulted %d pages on an evicted pool, want 0", faults)
	}

	// Contrast: without the index the same query reads full rows and must
	// fault pages back in.
	db.DisableIndexScan = true
	defer func() { db.DisableIndexScan = false }()
	assertPlanContains(t, db, q, "scan candidates\n")
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	m0 = pool.Stats().Misses
	if got := count(); got != want {
		t.Fatalf("scan count = %d, want %d", got, want)
	}
	if faults := pool.Stats().Misses - m0; faults == 0 {
		t.Fatal("row-fetching scan faulted 0 pages; the covering contrast is vacuous")
	}
}

// TestOrOverIndexedColumnsParity: an OR across two indexed columns returns
// each row matched by both disjuncts once, and the planned results equal the
// ablated full-scan results.
func TestOrOverIndexedColumnsParity(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	rows := [][]Value{
		{Int(1), Int(1)}, // matches both disjuncts: must appear exactly once
		{Int(1), Int(2)},
		{Int(3), Int(1)},
		{Int(3), Int(4)},
		{Null(), Int(1)},
		{Int(1), Null()},
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("CREATE INDEX t_b ON t (b)")

	const q = "SELECT * FROM t WHERE a = 1 OR b = 1"
	planned, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.DisableIndexScan = true
	scanned, err := db.Query(q)
	db.DisableIndexScan = false
	if err != nil {
		t.Fatal(err)
	}
	if planned.Format() != scanned.Format() {
		t.Fatalf("planned and full-scan OR results differ:\n%s\nvs\n%s", planned.Format(), scanned.Format())
	}
	// (1,1) matches both disjuncts but appears once; (NULL,1) and (1,NULL)
	// each match via their non-NULL side; only (3,4) matches neither.
	if len(planned.Rows) != 5 {
		t.Fatalf("OR returned %d rows, want 5 (overlap once)", len(planned.Rows))
	}
}

// TestInListProbes pins IN-probe edge handling on the index path: duplicate
// members collapse to one probe, NULL members drop out (they can match
// nothing), and an incomparable member forces the full-scan fallback — all
// with full-scan parity.
func TestInListProbes(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	var rows [][]Value
	for i := 0; i < 40; i++ {
		rows = append(rows, []Value{Int(int64(i % 10)), Int(int64(i))})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX t_a ON t (a)")

	parity := func(q string) *Result {
		t.Helper()
		planned, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		db.DisableIndexScan = true
		scanned, err := db.Query(q)
		db.DisableIndexScan = false
		if err != nil {
			t.Fatal(err)
		}
		if planned.Format() != scanned.Format() {
			t.Fatalf("%s: planned and scanned results differ:\n%s\nvs\n%s", q, planned.Format(), scanned.Format())
		}
		return planned
	}

	// Duplicates collapse: 3 literals, 2 distinct probes.
	assertPlanContains(t, db, "SELECT * FROM t WHERE a IN (1, 1, 2)", "t_a (a in(2))")
	if res := parity("SELECT * FROM t WHERE a IN (1, 1, 2)"); len(res.Rows) != 8 {
		t.Fatalf("IN (1,1,2) returned %d rows, want 8", len(res.Rows))
	}
	// NULL members match nothing and are dropped from the probe set.
	if res := parity("SELECT * FROM t WHERE a IN (1, NULL)"); len(res.Rows) != 4 {
		t.Fatalf("IN (1, NULL) returned %d rows, want 4", len(res.Rows))
	}
	if res := parity("SELECT * FROM t WHERE a IN (NULL)"); len(res.Rows) != 0 {
		t.Fatalf("IN (NULL) returned %d rows, want 0", len(res.Rows))
	}
	// An incomparable member (text vs int column) is a type error, and the
	// error must surface identically whether or not the index path is used.
	const bad = "SELECT * FROM t WHERE a IN (1, 'x')"
	_, errPlanned := db.Query(bad)
	db.DisableIndexScan = true
	_, errScanned := db.Query(bad)
	db.DisableIndexScan = false
	if errPlanned == nil || errScanned == nil {
		t.Fatalf("IN (1, 'x') errors: planned=%v scanned=%v, want both non-nil", errPlanned, errScanned)
	}
	if errPlanned.Error() != errScanned.Error() {
		t.Fatalf("IN (1, 'x') error differs by plan: %q vs %q", errPlanned, errScanned)
	}
}
