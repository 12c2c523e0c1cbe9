package sqldb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// This file is the name-resolution oracle. The differential harness runs
// every query through several plans that all share one resolver, so it
// cannot notice a resolution bug; this test pins what each query returns,
// rows and exact error text, in testdata/resolve.golden. Run with -update to
// accept an intended change as a readable diff.

// resolveFixture holds the tables the hand-written cases name: u and v
// share a and b, w shares nothing with u, e is empty, and p is a second
// table with x and y, the names the alias cases use.
func resolveFixture(t testing.TB) *DB {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE u (a INT, b INT, g INT)")
	db.MustExec("CREATE TABLE v (a INT, b INT, d INT)")
	db.MustExec("CREATE TABLE w (z INT, q INT)")
	db.MustExec("CREATE TABLE e (a INT, x INT)")
	db.MustExec("CREATE TABLE p (x INT, y INT)")
	db.MustExec("INSERT INTO u VALUES (1, 10, 0), (2, 20, 0), (3, NULL, 1), (4, 40, 1), (5, 50, 1)")
	db.MustExec("INSERT INTO v VALUES (1, 11, 2), (2, 21, 3), (2, 22, 3), (NULL, 31, 4)")
	db.MustExec("INSERT INTO w VALUES (10, 1), (20, 2), (40, 3)")
	db.MustExec("INSERT INTO p VALUES (1, 100), (2, 200)")
	db.MustExec("CREATE INDEX v_a ON v (a)")
	db.MustExec("CREATE INDEX w_z ON w (z)")
	return db
}

// resolveCases are hand-written queries, one or more per resolution rule.
var resolveCases = []string{
	// An unqualified name two FROM relations share is ambiguous; a
	// qualified one is not, and a name only one relation has needs no
	// qualifier.
	"SELECT a FROM u JOIN v ON u.a = v.a",
	"SELECT u.a, v.a, d, g FROM u JOIN v ON u.a = v.a",
	"SELECT u.a FROM u, v WHERE a = 1",
	"SELECT u.a FROM u JOIN v ON u.a = v.a WHERE b > 20",
	// A qualified name whose relation lacks the column.
	"SELECT u.nosuch FROM u",
	"SELECT a FROM u WHERE u.nosuch = 1",
	"SELECT u.nosuch FROM e u",
	// An unknown column errors only when a row evaluates it.
	"SELECT nosuch FROM e",
	"SELECT * FROM e WHERE nosuch = 1",
	"SELECT nosuch FROM u",
	"SELECT * FROM u WHERE nosuch = 1",
	"SELECT a FROM u ORDER BY nosuch",
	"SELECT zz.a FROM u",
	"SELECT a FROM u WHERE a > 9 AND nosuch = 1",
	// Select aliases in WHERE, GROUP BY, HAVING and ORDER BY.
	"SELECT a + b AS s FROM u WHERE s > 20 ORDER BY s DESC",
	"SELECT a * 2 AS a2, b FROM u ORDER BY a2 DESC LIMIT 2",
	"SELECT g AS k, COUNT(*) AS n FROM u GROUP BY k HAVING n > 1 ORDER BY n",
	"SELECT a AS b FROM u WHERE b = 20",
	"SELECT b AS x, x + 1 AS y FROM u ORDER BY y",
	// An alias is busy while its own expression evaluates: a reference to
	// it there resolves further out, here to nothing or to p's columns.
	"SELECT x + 1 AS y, y * 2 AS x FROM u",
	"SELECT y AS y FROM u",
	"SELECT x FROM p WHERE EXISTS (SELECT x + 1 AS y, y * 2 AS x FROM v WHERE y > 10)",
	"SELECT x, (SELECT y + 1 AS y FROM w WHERE z = 10) FROM p",
	"SELECT x, y, (SELECT MAX(x * 2 + y) AS x FROM v) FROM p",
	"SELECT x, (SELECT a + y AS y FROM v WHERE a = x) AS y FROM p",
	// Duplicate aliases: the last item with a name wins.
	"SELECT a AS k, b AS k FROM u WHERE k > 20",
	// An inner column shadows an outer one of the same name.
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM v WHERE a = 1)",
	"SELECT a, (SELECT COUNT(*) FROM v WHERE b > 20) FROM u",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM w WHERE q = a)",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM v WHERE v.a = u.a AND d = 3)",
	// References one and two levels up, qualified and not.
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM v WHERE EXISTS (SELECT * FROM w WHERE w.z = u.b AND w.q = v.a))",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM w WHERE EXISTS (SELECT * FROM p WHERE p.x = q AND g = 1))",
	"SELECT a, (SELECT COUNT(*) FROM v WHERE EXISTS (SELECT * FROM w WHERE z = b AND q >= a)) FROM u",
	"SELECT a FROM u WHERE b > ALL (SELECT z FROM w WHERE q < a)",
	"SELECT a FROM u WHERE a IN (SELECT q FROM w WHERE z <> b)",
	// Outer select aliases read from a subquery.
	"SELECT a AS t FROM u WHERE EXISTS (SELECT * FROM v WHERE v.a = t)",
	"SELECT DISTINCT g AS t FROM u WHERE EXISTS (SELECT * FROM v JOIN w ON w.q = v.a WHERE v.a = t AND d <= 3) ORDER BY t",
	// Aggregates: an outer aggregate reached through its alias from a
	// subquery's HAVING, an aggregate a subquery's HAVING computes over
	// an outer column, and aggregates no level computes.
	"SELECT g, COUNT(*) AS n FROM u GROUP BY g HAVING EXISTS (SELECT d FROM v GROUP BY d HAVING COUNT(*) = n)",
	"SELECT g, COUNT(*) AS n FROM u GROUP BY g HAVING EXISTS (SELECT * FROM v WHERE v.d = n)",
	"SELECT g FROM u GROUP BY g HAVING EXISTS (SELECT d FROM v GROUP BY d HAVING MAX(u.a) > d)",
	"SELECT g FROM u GROUP BY g HAVING EXISTS (SELECT * FROM v WHERE v.a < COUNT(*))",
	"SELECT a FROM u WHERE COUNT(*) > 1",
	"SELECT COUNT(*) AS n FROM u WHERE n > 1",
	"SELECT SUM(COUNT(a)) FROM u",
	"SELECT g, SUM(a) AS s FROM u GROUP BY g ORDER BY s DESC",
	"SELECT COUNT(*) FROM e",
	"SELECT g, (SELECT COUNT(*) FROM v WHERE v.a <= MAX(u.a)) FROM u GROUP BY g",
	// An ON clause sees only the relations joined so far, and no select
	// aliases.
	"SELECT u.a FROM u JOIN v ON v.a = w.z JOIN w ON w.q = u.a",
	"SELECT u.a FROM u JOIN v ON v.a = z JOIN w ON w.q = u.a",
	"SELECT u.a AS k FROM u JOIN v ON v.a = k",
	"SELECT u.a FROM u JOIN w ON z = b",
	"SELECT u.a, w.q FROM u LEFT JOIN w ON z = b AND q > 1",
	"SELECT u.a FROM u JOIN v ON v.a = u.a JOIN w ON w.q = v.d - 1",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM v JOIN w ON w.q = a WHERE v.a = w.q)",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM v v1 JOIN v v2 ON v2.a = a JOIN u u2 ON u2.a = v2.a)",
	"SELECT u.a FROM e JOIN u ON u.a = nosuch",
	"SELECT u.a FROM u JOIN e ON e.a = nosuch",
	// Columns of derived tables, named and starred, duplicates included.
	"SELECT d.s, s FROM (SELECT a + b AS s FROM u) d WHERE s > 20",
	"SELECT * FROM (SELECT a, a FROM u) d",
	"SELECT a FROM (SELECT a, a FROM u WHERE a < 3) d",
	"SELECT d.b FROM (SELECT a FROM u) d",
	"SELECT k, COUNT(*) FROM (SELECT g AS k, a FROM u) d GROUP BY k",
	"SELECT a FROM (SELECT * FROM u JOIN w ON w.q = u.a) d",
	"SELECT d.z FROM (SELECT * FROM u JOIN w ON w.q = u.a) d WHERE d.a > 1",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM (SELECT d FROM v) x WHERE x.d = u.g + 2)",
	"SELECT * FROM (SELECT x.* FROM u) d",
	"SELECT * FROM u JOIN (SELECT * FROM nosuch) d ON d.a = u.a",
	// Stars: all relations, one relation, an unknown one.
	"SELECT x.* FROM u",
	"SELECT x.* FROM e",
	"SELECT u.*, w.z FROM u JOIN w ON w.q = u.a",
	"SELECT * FROM u JOIN w ON w.q = u.a WHERE q = 2",
	// Unknown tables.
	"SELECT a FROM nosuch",
	"SELECT a FROM u WHERE EXISTS (SELECT * FROM nosuch)",
	"SELECT a FROM e WHERE EXISTS (SELECT * FROM nosuch)",
}

// resolveDML are statements whose WHERE and SET expressions resolve
// against the target table; each runs on a fresh fixture, and the table is
// recorded after it.
var resolveDML = []struct{ sql, table string }{
	{"UPDATE u SET b = a + g WHERE a > 2", "u"},
	{"UPDATE u SET b = (SELECT MAX(z) FROM w WHERE q <= a)", "u"},
	{"DELETE FROM u WHERE EXISTS (SELECT * FROM v WHERE v.a = u.a AND b > 20)", "u"},
	{"DELETE FROM u WHERE nosuch = 1", "u"},
	{"DELETE FROM e WHERE nosuch = 1", "e"},
	{"UPDATE u SET b = nosuch WHERE a > 9", "u"},
	{"INSERT INTO w SELECT a, g FROM u WHERE g = 1", "w"},
}

// renderResult prints a result with typed values, so Int(1), Float(1) and
// TRUE stay apart.
func renderResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "columns: %s\n", strings.Join(res.Columns, ", "))
	for _, row := range res.Rows {
		sb.WriteString("  ")
		for i, v := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%s:%s", v.Type(), v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestResolutionGolden(t *testing.T) {
	var out strings.Builder

	out.WriteString("# hand-written\n")
	db := resolveFixture(t)
	for _, q := range resolveCases {
		res, err := db.Query(q)
		fmt.Fprintf(&out, "\n> %s\n%s", q, renderResult(res, err))
	}
	for _, c := range resolveDML {
		db := resolveFixture(t)
		n, err := db.Exec(c.sql)
		fmt.Fprintf(&out, "\n> %s\n", c.sql)
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		} else {
			fmt.Fprintf(&out, "affected: %d\n", n)
		}
		res, err := db.Query("SELECT * FROM " + c.table)
		out.WriteString(renderResult(res, err))
	}

	// Generated queries: rows go in as a digest, so the file stays small
	// while any change to a result still shows.
	out.WriteString("\n# generated\n")
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		db, tables := buildDiffDB(t, r)
		for i := 0; i < 10; i++ {
			sql, args := buildDiffQuery(r, tables)
			res, err := db.Query(sql, args...)
			fmt.Fprintf(&out, "\n> seed %d: %s %v\n", seed, sql, args)
			if err != nil {
				fmt.Fprintf(&out, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(&out, "columns: %s\nrows: %d sha256: %x\n", strings.Join(res.Columns, ", "),
				len(res.Rows), sha256.Sum256([]byte(renderResult(res, nil))))
		}
	}

	got := out.String()
	path := filepath.Join("testdata", "resolve.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/sqldb -run TestResolutionGolden -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("resolution changed at line %d:\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("resolution changed: want %d lines, got %d", len(wl), len(gl))
	}
}

// TestBindingFollowsEachDatabase runs one prepared statement against two
// databases whose tables lay out the same names differently, from several
// goroutines at once: each execution binds against its own database, so
// every answer matches that database alone.
func TestBindingFollowsEachDatabase(t *testing.T) {
	st := MustPrepare(`SELECT b AS k, (SELECT COUNT(*) FROM s WHERE s.a = k) FROM t
		WHERE a >= ? AND EXISTS (SELECT * FROM s WHERE s.a = t.a) ORDER BY k`)
	dbA, dbB := New(), New()
	dbA.MustExec("CREATE TABLE t (a INT, b INT)")
	dbA.MustExec("CREATE TABLE s (a INT)")
	dbB.MustExec("CREATE TABLE t (c TEXT, b INT, a INT)")
	dbB.MustExec("CREATE TABLE s (z INT, a INT)")
	dbA.MustExec("INSERT INTO t VALUES (1, 1), (2, 2), (3, 1)")
	dbA.MustExec("INSERT INTO s VALUES (1), (2), (2)")
	dbB.MustExec("INSERT INTO t VALUES ('x', 2, 1), ('y', 1, 2), ('z', 3, 3)")
	dbB.MustExec("INSERT INTO s VALUES (0, 1), (0, 2), (0, 3), (0, 3)")
	want := map[*DB]string{
		dbA: "[[1 1] [2 2]]",
		dbB: "[[1 1] [2 1] [3 2]]",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		db := dbA
		if g%2 == 1 {
			db = dbB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := st.Query(db, Int(1))
				if err != nil {
					errs <- err
					return
				}
				if got := fmt.Sprint(res.Rows); got != want[db] {
					errs <- fmt.Errorf("got %s, want %s", got, want[db])
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
