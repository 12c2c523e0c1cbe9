package sqldb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"justintime/internal/sqldb/pager"
)

// benchDB builds a candidates-like table with n rows over k time points and
// a matching temporal_inputs table.
func benchDB(n, k int) *DB {
	rng := rand.New(rand.NewSource(1))
	db := New()
	db.MustExec("CREATE TABLE candidates (time INT, income FLOAT, diff FLOAT, gap INT, p FLOAT)")
	db.MustExec("CREATE TABLE temporal_inputs (time INT, income FLOAT)")
	ti := make([][]Value, k)
	for t := 0; t < k; t++ {
		ti[t] = []Value{Int(int64(t)), Float(48000)}
	}
	if err := db.InsertRows("temporal_inputs", ti); err != nil {
		panic(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{
			Int(int64(rng.Intn(k))),
			Float(40000 + rng.Float64()*40000),
			Float(rng.Float64() * 20000),
			Int(int64(rng.Intn(4))),
			Float(rng.Float64()),
		}
	}
	if err := db.InsertRows("candidates", rows); err != nil {
		panic(err)
	}
	return db
}

// BenchmarkJoin is the join ablation: hash join vs nested loop on the same
// equi-join.
func BenchmarkJoin(b *testing.B) {
	const q = `SELECT COUNT(*) FROM candidates c INNER JOIN temporal_inputs ti ON c.time = ti.time`
	for _, size := range []int{1000, 10000} {
		for _, disable := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d/hash=%v", size, !disable)
			b.Run(name, func(b *testing.B) {
				db := benchDB(size, 64)
				db.DisableHashJoin = disable
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkParse(b *testing.B) {
	const q = `SELECT distinct time as t FROM candidates WHERE EXISTS
	(SELECT * FROM candidates as cnd INNER JOIN temporal_inputs as ti
	 ON ti.time = cnd.time WHERE cnd.time = t
	 AND ((gap = 0) OR (gap = 1 AND cnd.income != ti.income)))`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterScan(b *testing.B) {
	db := benchDB(10000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT MIN(diff) FROM candidates WHERE p > 0.9"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupBy(b *testing.B) {
	db := benchDB(10000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT time, COUNT(*), AVG(p) FROM candidates GROUP BY time"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrelatedExists(b *testing.B) {
	db := benchDB(1000, 16)
	const q = `SELECT distinct time as t FROM candidates WHERE EXISTS
	(SELECT * FROM candidates as cnd INNER JOIN temporal_inputs as ti
	 ON ti.time = cnd.time WHERE cnd.time = t
	 AND ((gap = 0) OR (gap = 1 AND cnd.income != ti.income)))`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCannedQuestion compares the seed ask path (parse the SQL on
// every ask, full-scan candidates) against the engine path (statement
// prepared once, candidates(time) answered through the secondary index) on
// the plan-style per-time-point lookup. The acceptance bar for the indexed
// + prepared path is >= 2x the seed path.
func BenchmarkCannedQuestion(b *testing.B) {
	const rows, times = 10000, 64
	b.Run("seed/scan+reparse", func(b *testing.B) {
		db := benchDB(rows, times)
		db.DisableIndexScan = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf("SELECT * FROM candidates WHERE time = %d ORDER BY p DESC LIMIT 1", i%times)
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine/indexed+prepared", func(b *testing.B) {
		db := benchDB(rows, times)
		db.MustExec("CREATE INDEX candidates_time ON candidates (time)")
		st := MustPrepare("SELECT * FROM candidates WHERE time = ? ORDER BY p DESC LIMIT 1")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(db, Int(int64(i%times))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexRange isolates the sorted-key range path against the
// equivalent full scan.
func BenchmarkIndexRange(b *testing.B) {
	const q = "SELECT COUNT(*), AVG(p) FROM candidates WHERE time BETWEEN 10 AND 12"
	for _, indexed := range []bool{false, true} {
		b.Run(fmt.Sprintf("indexed=%v", indexed), func(b *testing.B) {
			db := benchDB(10000, 64)
			if indexed {
				db.MustExec("CREATE INDEX candidates_time ON candidates (time)")
			} else {
				db.DisableIndexScan = true
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The planner benchmarks compare each plan shape against a baseline pinned
// by an ablation knob, asserting the planned shape so a planner change
// cannot silently benchmark the wrong thing. They run at a seed-sized
// candidate count (500), at 100x (50000) and — behind BENCH_LARGE=1, since
// building the fixture dominates otherwise — at 10000x (5M).

func plannerBenchSizes() []struct {
	label string
	rows  int
} {
	sizes := []struct {
		label string
		rows  int
	}{{"seed", 500}, {"100x", 50000}}
	if os.Getenv("BENCH_LARGE") != "" {
		sizes = append(sizes, struct {
			label string
			rows  int
		}{"10000x", 5000000})
	}
	return sizes
}

// BenchmarkIndexJoin: the inner (large) table probed through its index per
// outer row vs rebuilding a hash table over it on every query.
func BenchmarkIndexJoin(b *testing.B) {
	const q = "SELECT COUNT(*) FROM temporal_inputs ti INNER JOIN candidates c ON c.time = ti.time"
	for _, size := range plannerBenchSizes() {
		for _, planned := range []bool{false, true} {
			b.Run(fmt.Sprintf("rows=%s/planned=%v", size.label, planned), func(b *testing.B) {
				db := benchDB(size.rows, 64)
				db.MustExec("CREATE INDEX candidates_time ON candidates (time)")
				db.DisableIndexScan = !planned
				if planned {
					assertBenchPlan(b, db, q, "index nested loop (candidates_time)")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTopK: ORDER BY ... LIMIT streamed off the sorted index vs
// materializing and sorting every row.
func BenchmarkTopK(b *testing.B) {
	const q = "SELECT * FROM candidates ORDER BY p DESC LIMIT 1"
	for _, size := range plannerBenchSizes() {
		for _, planned := range []bool{false, true} {
			b.Run(fmt.Sprintf("rows=%s/planned=%v", size.label, planned), func(b *testing.B) {
				db := benchDB(size.rows, 64)
				db.MustExec("CREATE INDEX candidates_p ON candidates (p)")
				db.DisableIndexScan = !planned
				if planned {
					assertBenchPlan(b, db, q, "top-k scan candidates using index candidates_p (p desc) limit 1")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkJoinFlip: candidates (outer, n rows) joined to temporal_inputs
// (inner, 64 keys). The baseline (DisableHashJoin) probes the inner index
// once per outer row; the planner sees more outer rows than distinct inner
// keys and builds the 64-entry hash table instead.
func BenchmarkJoinFlip(b *testing.B) {
	const q = "SELECT COUNT(*) FROM candidates c INNER JOIN temporal_inputs ti ON ti.time = c.time"
	for _, size := range plannerBenchSizes() {
		for _, plan := range []string{"index-nl", "hash"} {
			b.Run(fmt.Sprintf("rows=%s/plan=%s", size.label, plan), func(b *testing.B) {
				db := benchDB(size.rows, 64)
				db.MustExec("CREATE INDEX temporal_inputs_time ON temporal_inputs (time)")
				if plan == "hash" {
					assertBenchPlan(b, db, q, "hash join")
				} else {
					db.DisableHashJoin = true
					assertBenchPlan(b, db, q, "index nested loop (temporal_inputs_time)")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCoveringPaged: a COUNT over one indexed column on a paged table
// behind a tiny pool. The full scan materializes every row — faulting row
// pages through 8 frames on every query — while the covering plan answers
// from the index key tuples and never touches a row page.
func BenchmarkCoveringPaged(b *testing.B) {
	const q = "SELECT COUNT(*) FROM candidates WHERE time = 3"
	for _, size := range plannerBenchSizes() {
		for _, plan := range []string{"scan", "covering"} {
			b.Run(fmt.Sprintf("rows=%s/plan=%s", size.label, plan), func(b *testing.B) {
				db := benchDB(size.rows, 64)
				db.MustExec("CREATE INDEX candidates_time ON candidates (time)")
				pool := pager.NewPool(8)
				if err := db.PageTable("candidates", pool, filepath.Join(b.TempDir(), "spill.db")); err != nil {
					b.Fatal(err)
				}
				defer db.ClosePagedStores()
				if plan == "covering" {
					assertBenchPlan(b, db, q, "covering index candidates_time (time=)")
				} else {
					db.DisableIndexScan = true
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// assertBenchPlan guards the benchmarks against silently measuring the
// wrong plan shape after a planner change.
func assertBenchPlan(b *testing.B, db *DB, q, fragment string) {
	b.Helper()
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		b.Fatal(err)
	}
	txt := ""
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		txt += s + "\n"
	}
	if !strings.Contains(txt, fragment) {
		b.Fatalf("benchmark plan lacks %q:\n%s", fragment, txt)
	}
}

func BenchmarkInsertSQL(b *testing.B) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b FLOAT)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (1, 2.5)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild rebuilds the six lazy indexes a session database
// carries, on a 32-row candidates-shaped table over four time points: the
// work a rehydrated session pays on its first asks. B/op is the memory the
// indexes hold plus the build's scratch.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	feats := []string{"age", "household", "income", "debt", "seniority", "amount"}
	const times = 4
	db := New()
	tiCols := []Column{{Name: "time", Type: IntType}}
	for _, f := range feats {
		tiCols = append(tiCols, Column{Name: f, Type: FloatType})
	}
	candCols := append(append([]Column(nil), tiCols...),
		Column{Name: "diff", Type: FloatType}, Column{Name: "gap", Type: IntType}, Column{Name: "p", Type: FloatType})
	if err := db.CreateTable("temporal_inputs", tiCols); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable("candidates", candCols); err != nil {
		b.Fatal(err)
	}
	for _, ix := range []struct {
		name, table string
		cols        []string
	}{
		{"temporal_inputs_time", "temporal_inputs", []string{"time"}},
		{"candidates_time_gap", "candidates", []string{"time", "gap"}},
		{"candidates_diff_time", "candidates", []string{"diff", "time"}},
		{"candidates_p", "candidates", []string{"p"}},
		{"candidates_gap_diff", "candidates", []string{"gap", "diff"}},
		{"candidates_time_p", "candidates", []string{"time", "p"}},
	} {
		if err := db.CreateIndex(ix.name, ix.table, ix.cols...); err != nil {
			b.Fatal(err)
		}
	}
	ti := make([][]Value, times)
	for t := range ti {
		ti[t] = []Value{Int(int64(t))}
		for range feats {
			ti[t] = append(ti[t], Float(float64(rng.Intn(50000))))
		}
	}
	cand := make([][]Value, 32)
	for i := range cand {
		row := []Value{Int(int64(i * times / len(cand)))}
		for range feats {
			row = append(row, Float(float64(rng.Intn(50000))))
		}
		gap := rng.Intn(3)
		diff := 0.0
		if gap > 0 {
			diff = rng.Float64() * 20000
		}
		cand[i] = append(row, Float(diff), Int(int64(gap)), Float(0.5+rng.Float64()/2))
	}
	if err := db.InsertRows("temporal_inputs", ti); err != nil {
		b.Fatal(err)
	}
	if err := db.InsertRows("candidates", cand); err != nil {
		b.Fatal(err)
	}
	tables := []*Table{db.tables["temporal_inputs"], db.tables["candidates"]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			for _, ix := range t.indexes {
				ix.built = 0 // stale: the next ensure rebuilds
				if err := ix.ensure(t); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
