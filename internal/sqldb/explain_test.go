package sqldb

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// explainFixture is a deterministic session-shaped database carrying every
// index shape the planner knows, so each golden case demonstrates one plan.
func explainFixture(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE candidates (time INT, income FLOAT, diff FLOAT, gap INT, p FLOAT)")
	db.MustExec("CREATE TABLE temporal_inputs (time INT, income FLOAT)")
	var cands [][]Value
	for tm := 0; tm < 4; tm++ {
		for i := 0; i < 6; i++ {
			cands = append(cands, []Value{
				Int(int64(tm)),
				Float(40000 + float64(i*1000)),
				Float(float64((tm*7+i*3)%11) / 2),
				Int(int64(i % 3)),
				Float(float64((tm*5+i)%10) / 10),
			})
		}
	}
	if err := db.InsertRows("candidates", cands); err != nil {
		t.Fatal(err)
	}
	var ti [][]Value
	for tm := 0; tm < 4; tm++ {
		ti = append(ti, []Value{Int(int64(tm)), Float(48000)})
	}
	if err := db.InsertRows("temporal_inputs", ti); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX candidates_time ON candidates (time)")
	db.MustExec("CREATE INDEX candidates_diff ON candidates (diff)")
	db.MustExec("CREATE INDEX candidates_p ON candidates (p)")
	db.MustExec("CREATE INDEX candidates_gap_diff ON candidates (gap, diff)")
	db.MustExec("CREATE INDEX candidates_time_p ON candidates (time, p)")
	db.MustExec("CREATE INDEX temporal_inputs_time ON temporal_inputs (time)")
	return db
}

// TestExplainGolden renders EXPLAIN for one query per plan shape and diffs
// it against testdata/explain/<name>.golden; run with -update to accept
// intentional plan changes as readable diffs in review. A golden file no
// case names fails the test, so a renamed or deleted case cannot leave its
// old plan behind.
func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name string
		sql  string
	}{
		{name: "full_scan", sql: "SELECT * FROM candidates"},
		{name: "index_eq", sql: "SELECT * FROM candidates WHERE time = 3"},
		{name: "index_range", sql: "SELECT COUNT(*) FROM candidates WHERE p > 0.5"},
		{name: "composite_prefix", sql: "SELECT COUNT(*) FROM candidates WHERE time = 3 AND p > 0.5"},
		{name: "residual_range", sql: "SELECT COUNT(*) FROM candidates WHERE time = 2 AND gap <= 1"},
		{name: "null_probe", sql: "SELECT * FROM candidates WHERE time = NULL"},
		{name: "index_join", sql: "SELECT COUNT(*) FROM temporal_inputs ti INNER JOIN candidates c ON c.time = ti.time"},
		{name: "hash_join", sql: "SELECT COUNT(*) FROM candidates c LEFT JOIN temporal_inputs ti ON c.income = ti.income"},
		{name: "nested_loop_join", sql: "SELECT COUNT(*) FROM temporal_inputs a INNER JOIN temporal_inputs b ON a.time < b.time"},
		{name: "topk_desc", sql: "SELECT * FROM candidates ORDER BY p DESC LIMIT 1"},
		{name: "topk_eq_prefix", sql: "SELECT * FROM candidates WHERE time = 2 ORDER BY p DESC LIMIT 3"},
		{name: "topk_composite", sql: "SELECT * FROM candidates ORDER BY gap, diff LIMIT 1"},
		{name: "sort_fallback", sql: "SELECT * FROM candidates ORDER BY income LIMIT 2"},
		{name: "covering_group", sql: "SELECT gap, COUNT(*) FROM candidates GROUP BY gap"},
		{name: "or_full_scan", sql: "SELECT * FROM candidates WHERE time = 1 OR gap = 2"},
		{name: "in_list", sql: "SELECT * FROM candidates WHERE time IN (1, 3)"},
		{name: "dominant_feature", sql: `SELECT distinct time as t FROM candidates WHERE EXISTS
(SELECT * FROM candidates as cnd INNER JOIN temporal_inputs as ti ON ti.time = cnd.time
 WHERE cnd.time = t AND gap <= 1
 AND ((gap = 0) OR (gap = 1 AND cnd.income != ti.income))) ORDER BY t`},
		{name: "turning_point", sql: `SELECT Min(time) FROM candidates WHERE p > 0.5 AND time > ALL
(SELECT ti.time FROM temporal_inputs ti WHERE NOT EXISTS
 (SELECT * FROM candidates c WHERE c.time = ti.time AND c.p > 0.5))`},
	}
	named := make(map[string]bool, len(cases))
	for _, tc := range cases {
		named[tc.name+".golden"] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "explain", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !named[filepath.Base(f)] {
			t.Errorf("orphaned golden %s: no case names it; delete it", f)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := explainFixture(t)
			res, err := db.Query("EXPLAIN " + tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Columns) != 1 || res.Columns[0] != "plan" {
				t.Fatalf("EXPLAIN columns = %v", res.Columns)
			}
			var lines []string
			for _, row := range res.Rows {
				s, _ := row[0].AsText()
				lines = append(lines, s)
			}
			got := strings.Join(lines, "\n") + "\n"
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/sqldb -run TestExplainGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan changed for %q:\n--- want\n%s--- got\n%s", tc.sql, want, got)
			}
		})
	}
}

// TestExplainExecutesForReal pins the EXPLAIN contract: the query actually
// runs, so execution errors surface and parameters bind.
func TestExplainExecutesForReal(t *testing.T) {
	db := explainFixture(t)
	if _, err := db.Query("EXPLAIN SELECT bogus FROM candidates"); err == nil {
		t.Fatal("EXPLAIN of an erroring query should error")
	}
	res, err := db.Query("EXPLAIN SELECT * FROM candidates WHERE time = ? ORDER BY p DESC LIMIT 1", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	joined := resultPlanText(res)
	if !strings.Contains(joined, "top-k scan candidates using index candidates_time_p") {
		t.Errorf("parameterized EXPLAIN missed the top-k plan:\n%s", joined)
	}
	// EXPLAIN is Query-only.
	if _, err := db.Exec("EXPLAIN SELECT * FROM candidates"); err == nil {
		t.Fatal("EXPLAIN via Exec should error")
	}
	st := MustPrepare("EXPLAIN SELECT * FROM candidates")
	if !st.IsSelect() {
		t.Fatal("EXPLAIN must be classified read-only (IsSelect)")
	}
}

// TestPlanCountersAdvance asserts the per-shape counters move when their
// plans run (deltas only: the counters are process-wide).
func TestPlanCountersAdvance(t *testing.T) {
	checks := []struct {
		key string
		sql string
	}{
		{"full_scan", "SELECT * FROM candidates"},
		{"index_scan", "SELECT income FROM candidates WHERE time = 1"},
		{"covering_scan", "SELECT COUNT(*) FROM candidates WHERE time = 1"},
		{"empty_probe", "SELECT COUNT(*) FROM candidates WHERE time = NULL"},
		{"top_k", "SELECT * FROM candidates ORDER BY p DESC LIMIT 1"},
		{"index_join", "SELECT COUNT(*) FROM temporal_inputs ti INNER JOIN candidates c ON c.time = ti.time"},
		{"hash_join", "SELECT COUNT(*) FROM candidates c INNER JOIN temporal_inputs ti ON c.income = ti.income"},
		{"nested_loop_join", "SELECT COUNT(*) FROM temporal_inputs a INNER JOIN temporal_inputs b ON a.time < b.time"},
	}
	for _, c := range checks {
		db := explainFixture(t)
		before := PlanCounters()[c.key]
		if _, err := db.Query(c.sql); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if after := PlanCounters()[c.key]; after <= before {
			t.Errorf("%s: counter %q did not advance (%d -> %d)", c.sql, c.key, before, after)
		}
	}
}

func resultPlanText(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		fmt.Fprintln(&sb, s)
	}
	return sb.String()
}

func run0(t *testing.T, st *Stmt, db *DB, args ...Value) *Result {
	t.Helper()
	res, err := st.Query(db, args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanCacheLifecycle: a prepared statement plans every execution, so
// repeated runs, a rebound parameter and a NULL probe each answer for their
// own arguments.
func TestPlanCacheLifecycle(t *testing.T) {
	db := explainFixture(t)
	st := MustPrepare("SELECT * FROM candidates WHERE time = ?")

	want := run0(t, st, db, Int(1))
	for i := 0; i < 2; i++ {
		if got := run0(t, st, db, Int(1)); !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("exec %d: rows differ from exec 1:\n%s\nvs\n%s", i+2, got.Format(), want.Format())
		}
	}
	if res := run0(t, st, db, Int(2)); len(res.Rows) != 6 {
		t.Fatalf("time = 2 returned %d rows, want 6", len(res.Rows))
	}
	if res := run0(t, st, db, Null()); len(res.Rows) != 0 {
		t.Fatalf("time = NULL returned %d rows, want 0", len(res.Rows))
	}
}

// TestDropIndexInvalidatesCachedPlan: index DDL between executions of a
// prepared statement may change its plan but never its rows — after DROP
// INDEX the next execution routes through the surviving composite index, and
// a later CREATE INDEX may take the plan over.
func TestDropIndexInvalidatesCachedPlan(t *testing.T) {
	db := explainFixture(t)
	const q = "SELECT * FROM candidates WHERE time = 2"
	st := MustPrepare(q)

	want := run0(t, st, db)
	run0(t, st, db)
	db.MustExec("DROP INDEX candidates_time")
	if got := run0(t, st, db); !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("rows differ after DROP INDEX:\n%s\nvs\n%s", got.Format(), want.Format())
	}
	assertPlanContains(t, db, q, "candidates_time_p (time=)")

	db.MustExec("CREATE INDEX candidates_time2 ON candidates (time)")
	if got := run0(t, st, db); !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("rows differ after CREATE INDEX:\n%s\nvs\n%s", got.Format(), want.Format())
	}
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	if txt := resultPlanText(res); !strings.Contains(txt, "candidates_time2 (time=)") && !strings.Contains(txt, "candidates_time_p (time=)") {
		t.Fatalf("plan after CREATE INDEX uses neither time index:\n%s", txt)
	}
}

// TestPlanCacheHoldsNoAdHocPlans: many distinct ad-hoc statements, a DELETE
// with an IN subquery and a correlated EXISTS — which plans its index probe
// once per outer row — all run through DB.Query/Exec and return their rows.
func TestPlanCacheHoldsNoAdHocPlans(t *testing.T) {
	db := explainFixture(t)
	for i := 0; i < 1000; i++ {
		if _, err := db.Query(fmt.Sprintf("SELECT * FROM candidates WHERE time = %d AND p > 0.%d", i%4, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("DELETE FROM temporal_inputs WHERE time IN (SELECT time FROM candidates WHERE time = 9)")

	res, err := db.Query("SELECT ti.time FROM temporal_inputs ti WHERE EXISTS (SELECT * FROM candidates c WHERE c.time = ti.time AND c.p > 0.5)")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]Value{{Int(1)}, {Int(3)}}; !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("correlated EXISTS returned %v, want %v", res.Rows, want)
	}
}
