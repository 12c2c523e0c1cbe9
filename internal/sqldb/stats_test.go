package sqldb

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// statsFixture is a 1000-row table with a skewed low-cardinality column, a
// unique column and a column carrying NULLs — enough shape to exercise NDV
// counting, histogram packing and NULL exclusion.
func statsFixture(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
	rows := make([][]Value, 1000)
	for i := range rows {
		c := Text("x")
		if i%4 == 0 {
			c = Null()
		}
		rows[i] = []Value{Int(int64(i % 10)), Float(float64(i)), c}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("CREATE INDEX t_a_b ON t (a, b)")
	db.MustExec("CREATE INDEX t_c ON t (c)")
	return db
}

// loadStats returns the statistics currently published on the named index
// (nil when no build has derived any yet).
func loadStats(t *testing.T, db *DB, table, index string) *indexStats {
	t.Helper()
	for _, ix := range db.tables[table].indexes {
		if ix.name == index {
			return ix.stats.Load()
		}
	}
	t.Fatalf("no index %s on %s", index, table)
	return nil
}

func TestAnalyzeBuildsStats(t *testing.T) {
	db := statsFixture(t)
	if s := loadStats(t, db, "t", "t_a"); s != nil {
		t.Fatalf("stats exist before any index build or ANALYZE: %+v", s)
	}
	if _, err := db.Exec("ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	// The planner costs paths from ANALYZE's statistics straight away.
	assertPlanContains(t, db, "SELECT * FROM t WHERE a = 3", "est_rows=")

	s := loadStats(t, db, "t", "t_a")
	if s == nil {
		t.Fatal("no stats for t_a after ANALYZE")
	}
	if s.rows != 1000 || s.nullRows != 0 {
		t.Errorf("t_a rows/nullRows = %d/%d, want 1000/0", s.rows, s.nullRows)
	}
	if !reflect.DeepEqual(s.prefixNDV, []int{10}) {
		t.Errorf("t_a prefix NDV = %v, want [10]", s.prefixNDV)
	}
	// Equi-depth invariants: cumulative counts strictly increase to the row
	// total and bucket uppers strictly increase (runs of one value are never
	// split across buckets, so each upper appears once).
	if len(s.hist) == 0 || s.hist[len(s.hist)-1].cum != 1000 {
		t.Errorf("t_a histogram does not accumulate to 1000: %v", s.hist)
	}
	for i := 1; i < len(s.hist); i++ {
		if c, err := Compare(s.hist[i-1].upper, s.hist[i].upper); err != nil || c >= 0 {
			t.Errorf("t_a histogram uppers not strictly increasing at %d: %v", i, s.hist)
		}
		if s.hist[i].cum <= s.hist[i-1].cum {
			t.Errorf("t_a histogram cum not strictly increasing at %d: %v", i, s.hist)
		}
	}

	if s := loadStats(t, db, "t", "t_a_b"); !reflect.DeepEqual(s.prefixNDV, []int{10, 1000}) {
		t.Errorf("t_a_b prefix NDV = %v, want [10 1000]", s.prefixNDV)
	}
	if s := loadStats(t, db, "t", "t_c"); s.rows != 750 || s.nullRows != 250 {
		t.Errorf("t_c rows/nullRows = %d/%d, want 750/250 (NULLs excluded)", s.rows, s.nullRows)
	}
}

// TestStatsSetNaNAside pins how statistics treat NaN keys: Compare calls
// NaN equal to every number, so it has no place in a distinct count or a
// histogram. Over 200 rows with 196 distinct FLOAT values and four NaN, the
// NDVs and the histogram cover the 196 and the NaN rows are counted apart,
// also where the NaN sits in a later column of the key.
func TestStatsSetNaNAside(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a FLOAT, b INT)")
	rows := make([][]Value, 200)
	for i := range rows {
		a := Float(float64(i) * 1.5)
		if i%50 == 17 {
			a = Float(math.NaN())
		}
		rows[i] = []Value{a, Int(int64(i % 10))}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("CREATE INDEX t_b_a ON t (b, a)")
	if _, err := db.Exec("ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		index string
		ndv   []int
	}{
		{"t_a", []int{196}},
		{"t_b_a", []int{10, 196}},
	} {
		s := db.tables["t"].indexes[i].stats.Load()
		if s.rows != 196 || s.nanRows != 4 || s.nullRows != 0 {
			t.Errorf("%s rows/nanRows/nullRows = %d/%d/%d, want 196/4/0", c.index, s.rows, s.nanRows, s.nullRows)
		}
		if !reflect.DeepEqual(s.prefixNDV, c.ndv) {
			t.Errorf("%s prefix NDV = %v, want %v", c.index, s.prefixNDV, c.ndv)
		}
		if len(s.hist) == 0 || s.hist[len(s.hist)-1].cum != 196 {
			t.Errorf("%s histogram does not accumulate to 196: %v", c.index, s.hist)
		}
		for b, h := range s.hist {
			if isNaN(h.upper) {
				t.Errorf("%s histogram bucket %d has a NaN upper", c.index, b)
			}
			if b == 0 {
				continue
			}
			if o, err := Compare(s.hist[b-1].upper, h.upper); err != nil || o >= 0 {
				t.Errorf("%s histogram uppers not strictly increasing at %d: %v", c.index, b, s.hist)
			}
		}
	}
}

func TestAnalyzeUnknownTable(t *testing.T) {
	db := statsFixture(t)
	if _, err := db.Exec("ANALYZE nope"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("ANALYZE nope: got %v, want unknown-table error", err)
	}
}

// TestAnalyzeNotLogged pins the WAL contract: ANALYZE mutates no rows and
// must not be replayed on rehydration (a rehydrated database derives its
// statistics again at its first index build), while genuine mutations keep
// logging.
func TestAnalyzeNotLogged(t *testing.T) {
	db := statsFixture(t)
	log := &recordingLogger{}
	db.SetLogger(log)
	if _, err := db.Exec("ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	if len(log.events) != 0 {
		t.Fatalf("ANALYZE was WAL-logged: %v", log.events)
	}
	if _, err := db.Exec("UPDATE t SET b = b WHERE a = -1"); err != nil {
		t.Fatal(err)
	}
	if len(log.events) != 1 {
		t.Fatalf("UPDATE logged %d records, want 1", len(log.events))
	}
}

// TestHistogramEquiDepth checks the bucket packer directly: 10 values with
// 100 rows each against a depth of ceil(1000/32)=32 means every run
// overflows its own bucket, one bucket per distinct value.
func TestHistogramEquiDepth(t *testing.T) {
	ix := &tableIndex{cols: []int{0}, rows: make([]int, 1000), starts: []int32{0}}
	for i := 0; i < 10; i++ {
		ix.keys = append(ix.keys, Int(int64(i)))
		ix.starts = append(ix.starts, int32(100*(i+1)))
	}
	s := deriveIndexStats(ix)
	if s.rows != 1000 || len(s.hist) != 10 {
		t.Fatalf("rows=%d buckets=%d, want 1000 rows in 10 buckets", s.rows, len(s.hist))
	}
	// A strict bound landing exactly on a bucket upper still assumes half
	// the bucket below (the interpolation rule), hence 550, not 500.
	if got := s.rowsBelow(Int(5), false); got != 550 {
		t.Errorf("rowsBelow(5, strict) = %v, want 550", got)
	}
	if got := s.rowsBelow(Int(5), true); got != 600 {
		t.Errorf("rowsBelow(5, inclusive) = %v, want 600", got)
	}
	if got := s.rangeRows(nil, nil, false, false); got != 1000 {
		t.Errorf("unbounded rangeRows = %v, want 1000", got)
	}
}
