package sqldb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// pcDeltas runs f and returns the process-wide plan-cache counter deltas it
// caused. Tests in this package run sequentially, so the deltas are f's own.
func pcDeltas(t *testing.T, f func()) (hits, misses, invalidations uint64) {
	t.Helper()
	before := PlanCacheCounters()
	f()
	after := PlanCacheCounters()
	return after["hits"] - before["hits"],
		after["misses"] - before["misses"],
		after["invalidations"] - before["invalidations"]
}

// TestPlanCacheLifecycle pins the cache's interaction with lazily derived
// statistics: execution 1 misses and plans blind (its index build publishes
// first statistics, bumping the epoch), execution 2 finds the stale stamp —
// invalidation — and replans with statistics, execution 3 onward hits.
func TestPlanCacheLifecycle(t *testing.T) {
	db := explainFixture(t)
	st := MustPrepare("SELECT * FROM candidates WHERE time = ?")

	run := func(arg int64) *Result {
		res, err := st.Query(db, Int(arg))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if h, m, inv := pcDeltas(t, func() { run(1) }); h != 0 || m != 1 || inv != 0 {
		t.Fatalf("exec 1: hits/misses/invalidations = %d/%d/%d, want 0/1/0", h, m, inv)
	}
	if h, m, inv := pcDeltas(t, func() { run(1) }); h != 0 || m != 1 || inv != 1 {
		t.Fatalf("exec 2: hits/misses/invalidations = %d/%d/%d, want 0/1/1 (first stats bumped the epoch)", h, m, inv)
	}
	if h, m, inv := pcDeltas(t, func() { run(1) }); h != 1 || m != 0 || inv != 0 {
		t.Fatalf("exec 3: hits/misses/invalidations = %d/%d/%d, want 1/0/0", h, m, inv)
	}

	// Hits rebind parameters: a different probe value reuses the template
	// but must return its own rows.
	var res *Result
	h, m, _ := pcDeltas(t, func() { res = run(2) })
	if h != 1 || m != 0 {
		t.Fatalf("rebound exec: hits/misses = %d/%d, want 1/0", h, m)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("time = 2 on a cache hit returned %d rows, want 6", len(res.Rows))
	}
	// A NULL probe on a hit falls back to the empty result, like a miss would.
	if res = run0(t, st, db, Null()); len(res.Rows) != 0 {
		t.Fatalf("time = NULL on a cache hit returned %d rows, want 0", len(res.Rows))
	}
}

func run0(t *testing.T, st *Stmt, db *DB, args ...Value) *Result {
	t.Helper()
	res, err := st.Query(db, args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanCacheAdHocQueriesMiss: db.Query parses a fresh AST per call, so
// repeated ad-hoc text never hits — the cache is a prepared-statement win.
func TestPlanCacheAdHocQueriesMiss(t *testing.T) {
	db := explainFixture(t)
	db.MustExec("ANALYZE")
	const q = "SELECT * FROM candidates WHERE time = 1"
	h, m, _ := pcDeltas(t, func() {
		for i := 0; i < 3; i++ {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	})
	if h != 0 || m != 3 {
		t.Fatalf("ad-hoc repeats: hits/misses = %d/%d, want 0/3", h, m)
	}
}

// TestDropIndexInvalidatesCachedPlan is the DDL-epoch regression test: a
// cached plan referencing an index must be retired the moment that index is
// dropped — before the next execution — and the replanned statement must
// still return correct rows.
func TestDropIndexInvalidatesCachedPlan(t *testing.T) {
	db := explainFixture(t)
	db.MustExec("ANALYZE")
	st := MustPrepare("SELECT * FROM candidates WHERE time = 2")

	want := run0(t, st, db) // miss: caches a plan over candidates_time
	run0(t, st, db)         // hit
	schemaV, statsE := db.SchemaVersion(), db.StatsEpoch()
	db.MustExec("DROP INDEX candidates_time")
	if db.SchemaVersion() != schemaV+1 || db.StatsEpoch() != statsE+1 {
		t.Fatalf("DROP INDEX bumped schema/stats to %d/%d, want %d/%d",
			db.SchemaVersion(), db.StatsEpoch(), schemaV+1, statsE+1)
	}

	var got *Result
	h, m, inv := pcDeltas(t, func() { got = run0(t, st, db) })
	if h != 0 || m != 1 || inv != 1 {
		t.Fatalf("post-DROP exec: hits/misses/invalidations = %d/%d/%d, want 0/1/1", h, m, inv)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("replanned rows differ after DROP INDEX:\n%s\nvs\n%s", got.Format(), want.Format())
	}
	// The replanned template routes through the surviving composite index.
	assertPlanContains(t, db, "SELECT * FROM candidates WHERE time = 2", "candidates_time_p (time=)")

	// CREATE INDEX retires plans the same way: the new index may be better.
	run0(t, st, db) // re-cache under the new stamp
	db.MustExec("CREATE INDEX candidates_time2 ON candidates (time)")
	if _, _, inv := pcDeltas(t, func() { run0(t, st, db) }); inv != 1 {
		t.Fatalf("CREATE INDEX did not invalidate the cached plan (invalidations = %d)", inv)
	}
}

// TestPlanCacheCapBounded: churn through many distinct prepared statements
// cannot grow the per-DB cache past planCacheCap.
func TestPlanCacheCapBounded(t *testing.T) {
	db := explainFixture(t)
	db.MustExec("ANALYZE")
	for i := 0; i < planCacheCap+100; i++ {
		run0(t, MustPrepare(fmt.Sprintf("SELECT * FROM candidates WHERE time = %d", i%4)), db)
	}
	db.plans.mu.Lock()
	n := len(db.plans.m)
	db.plans.mu.Unlock()
	if n > planCacheCap {
		t.Fatalf("plan cache holds %d entries, cap is %d", n, planCacheCap)
	}
	if n == 0 {
		t.Fatal("plan cache is empty; prepared statements are not being cached at all")
	}
}

// TestPlanCacheHoldsNoAdHocPlans: an ad-hoc statement's AST never runs
// again, so db.Query and db.Exec keep their plans on the executor and the
// DB's cache stays empty however many distinct statements run. Within one
// execution the executor's cache still serves a re-planned subquery.
func TestPlanCacheHoldsNoAdHocPlans(t *testing.T) {
	db := explainFixture(t)
	db.MustExec("ANALYZE")
	for i := 0; i < 1000; i++ {
		if _, err := db.Query(fmt.Sprintf("SELECT * FROM candidates WHERE time = %d AND p > 0.%d", i%4, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("DELETE FROM temporal_inputs WHERE time IN (SELECT time FROM candidates WHERE time = 9)")
	db.plans.mu.Lock()
	n := len(db.plans.m)
	db.plans.mu.Unlock()
	if n != 0 {
		t.Fatalf("DB plan cache holds %d ad-hoc entries, want 0", n)
	}

	// A correlated subquery runs once per distinct outer time (4) and plans
	// its index probe each time: one miss, then three hits from the
	// executor's cache. The outer scan, with no sargable conjunct, is one
	// more miss.
	h, m, _ := pcDeltas(t, func() {
		if _, err := db.Query("SELECT ti.time FROM temporal_inputs ti WHERE EXISTS (SELECT * FROM candidates c WHERE c.time = ti.time AND c.p > 0.5)"); err != nil {
			t.Fatal(err)
		}
	})
	if h != 3 || m != 2 {
		t.Fatalf("correlated subquery: hits/misses = %d/%d, want 3/2", h, m)
	}
}

// TestPlanCacheRace hammers one DB with concurrent prepared queries, index
// DDL, ANALYZE and inserts. Run under -race in CI: it exists to catch
// unsynchronized access between cache lookups (read-locked queries) and the
// epoch bumps / template drops done by DDL and statistics derivation.
func TestPlanCacheRace(t *testing.T) {
	db := explainFixture(t)
	st := MustPrepare("SELECT COUNT(*) FROM candidates WHERE time = ? AND gap <= 1")
	st2 := MustPrepare("SELECT * FROM candidates WHERE time = 1 OR gap = 2")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
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
		}(g)
	}
	wg.Add(1)
	go func() { // index churn: every drop must retire cached templates
		defer wg.Done()
		for i := 0; i < 40; i++ {
			db.MustExec("CREATE INDEX tmp_income ON candidates (income)")
			db.MustExec("DROP INDEX tmp_income")
		}
	}()
	wg.Add(1)
	go func() { // epoch churn from full-table re-derivation
		defer wg.Done()
		for i := 0; i < 40; i++ {
			db.MustExec("ANALYZE candidates")
		}
	}()
	wg.Add(1)
	go func() { // data churn: drift accounting and index rebuilds
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
