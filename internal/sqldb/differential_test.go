package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// This file is the differential/property harness that locks the planner in:
// a generator emits random schemas, rows (with NULLs, and NaN in FLOAT
// columns), secondary indexes (single-column and composite) and SELECTs
// (multi-conjunct filters, inner and left joins, ORDER BY/LIMIT/OFFSET),
// and every query must return byte-identical results with the planner
// enabled and with DisableIndexScan forcing the naive scan path. Constants travel as `?` parameters, typed to
// the probed column's comparison family, so generated queries never hit
// evaluation type errors — any divergence is a planner bug, not noise.
// WHERE clauses also carry expression subqueries (EXISTS, IN, ALL/ANY and
// scalar), correlated and not, so subquery execution is diffed the same way.

// diffColumnPool is the fixed column menu tables draw from; small value
// domains force duplicate keys, ties at LIMIT boundaries, and NULL-heavy
// index builds.
var diffColumnPool = []Column{
	{Name: "c0", Type: IntType},
	{Name: "c1", Type: IntType},
	{Name: "c2", Type: FloatType},
	{Name: "c3", Type: FloatType},
	{Name: "c4", Type: TextType},
	{Name: "c5", Type: BoolType},
}

func randValueFor(r *rand.Rand, typ Type, nullPct float64) Value {
	if r.Float64() < nullPct {
		return Null()
	}
	switch typ {
	case IntType:
		return Int(int64(r.Intn(6)))
	case FloatType:
		return Float(float64(r.Intn(10)) / 2)
	case TextType:
		return Text([]string{"a", "b", "cc", "d", "ee"}[r.Intn(5)])
	case BoolType:
		return Bool(r.Intn(2) == 0)
	default:
		return Null()
	}
}

// diffProbe returns a constant probe value for comparisons against a column
// of the given type: same comparison family (so Compare never errors), with
// an occasional NULL to exercise the impossible-predicate plan and an
// occasional NaN (equal to every number under Compare) on numeric columns.
func diffProbe(r *rand.Rand, typ Type) Value {
	if r.Intn(12) == 0 {
		return Null()
	}
	switch typ {
	case TextType:
		return randValueFor(r, TextType, 0)
	case BoolType:
		if r.Intn(2) == 0 {
			return randValueFor(r, BoolType, 0)
		}
		return Int(int64(r.Intn(2))) // numeric probe on BOOL compares fine
	default:
		switch r.Intn(12) {
		case 0:
			return Float(math.NaN())
		case 1, 2, 3, 4, 5:
			return Int(int64(r.Intn(7)))
		}
		return Float(float64(r.Intn(12)) / 2)
	}
}

type diffTable struct {
	name   string
	cols   []Column
	ixCols [][]string // column names of each created index, creation order
}

// buildDiffDB generates a two-table schema with random indexes and rows,
// returning the populated database and the table descriptions. In about
// half of the tables one FLOAT value in ten is NaN; SQL has no NaN literal,
// so rows holding one go in through a prepared INSERT's bound parameters.
func buildDiffDB(t testing.TB, r *rand.Rand) (*DB, []diffTable) {
	db := New()
	tables := []diffTable{}
	for ti, name := range []string{"t1", "t2"} {
		ncols := 3 + r.Intn(len(diffColumnPool)-2)
		cols := append([]Column(nil), diffColumnPool[:ncols]...)
		if err := db.CreateTable(name, cols); err != nil {
			t.Fatal(err)
		}
		nrows := 20 + r.Intn(80)
		if ti == 1 && r.Intn(4) == 0 {
			nrows = 0 // empty inner table
		}
		nanPct := float64(r.Intn(2)) / 10
		rows := make([][]Value, nrows)
		for i := range rows {
			row := make([]Value, len(cols))
			for ci, c := range cols {
				row[ci] = randValueFor(r, c.Type, 0.15)
				if c.Type == FloatType && r.Float64() < nanPct {
					row[ci] = Float(math.NaN())
				}
			}
			rows[i] = row
		}
		insert := MustPrepare(fmt.Sprintf("INSERT INTO %s VALUES (?%s)", name, strings.Repeat(", ?", len(cols)-1)))
		for len(rows) > 0 {
			n := slices.IndexFunc(rows, func(row []Value) bool { return slices.ContainsFunc(row, isNaN) })
			if n == 0 {
				if _, err := insert.Exec(db, rows[0]...); err != nil {
					t.Fatal(err)
				}
				rows = rows[1:]
				continue
			}
			if n < 0 {
				n = len(rows)
			}
			if err := db.InsertRows(name, rows[:n]); err != nil {
				t.Fatal(err)
			}
			rows = rows[n:]
		}
		// Random indexes: singles and 2-3 column composites (exercising the
		// multi-column CREATE INDEX syntax), duplicates columns allowed
		// across indexes so the planner has overlapping paths to choose
		// between.
		nix := r.Intn(4)
		var ixCols [][]string
		for k := 0; k < nix; k++ {
			width := 1 + r.Intn(3)
			perm := r.Perm(len(cols))[:width]
			names := make([]string, width)
			for i, ci := range perm {
				names[i] = cols[ci].Name
			}
			sql := fmt.Sprintf("CREATE INDEX %s_ix%d ON %s (%s)", name, k, name, strings.Join(names, ", "))
			if _, err := db.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			ixCols = append(ixCols, names)
		}
		tables = append(tables, diffTable{name: name, cols: cols, ixCols: ixCols})
	}
	return db, tables
}

// buildDiffQuery generates one SELECT over the schema, returning the SQL and
// its bound parameters. Every query is safe to diff across all execution
// arms, including the fully-ablated nested loop: ON-clause equality matches
// by Value.key() family on every join path, so cross-family join keys (a
// BOOL column joined to a numeric one) are generated freely. All column
// references are alias-qualified so generated queries are never ambiguous.
func buildDiffQuery(r *rand.Rand, tables []diffTable) (string, []Value) {
	t1, t2 := tables[0], tables[1]
	join := r.Intn(3) // 0 = none, 1 = inner, 2 = left
	var sb strings.Builder
	var args []Value
	aliasCol := diffNumericCols(t1)[r.Intn(len(diffNumericCols(t1)))]
	usesAlias := false

	sb.WriteString("SELECT ")
	switch {
	case join == 0 && len(t1.ixCols) > 0 && r.Intn(3) == 0:
		// Project exactly one index's columns: when the WHERE clause stays
		// inside them too, the planner answers from the index alone
		// (covering scan) — the arm ablation proves it returns the same rows.
		cols := t1.ixCols[r.Intn(len(t1.ixCols))]
		for i, c := range cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "u.%s", c)
		}
	case r.Intn(3) > 0:
		sb.WriteString("*")
	default:
		n := 1 + r.Intn(len(t1.cols))
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "u.%s", t1.cols[r.Intn(len(t1.cols))].Name)
		}
	}
	selectList := sb.String()
	sb.Reset()
	sb.WriteString(" FROM t1 u")
	if join > 0 {
		kw := "INNER JOIN"
		if join == 2 {
			kw = "LEFT JOIN"
		}
		jc1 := t1.cols[r.Intn(len(t1.cols))]
		jc2 := t2.cols[r.Intn(len(t2.cols))]
		fmt.Fprintf(&sb, " %s t2 v ON u.%s = v.%s", kw, jc1.Name, jc2.Name)
	}

	nconj := r.Intn(5)
	for i := 0; i < nconj; i++ {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		alias, tbl := "u", t1
		if join > 0 && r.Intn(4) == 0 {
			alias, tbl = "v", t2
		}
		col := tbl.cols[r.Intn(len(tbl.cols))]
		switch r.Intn(11) {
		case 0:
			fmt.Fprintf(&sb, "%s.%s BETWEEN ? AND ?", alias, col.Name)
			args = append(args, diffProbe(r, col.Type), diffProbe(r, col.Type))
		case 1:
			fmt.Fprintf(&sb, "? %s %s.%s", []string{"=", "<", "<=", ">", ">="}[r.Intn(5)], alias, col.Name)
			args = append(args, diffProbe(r, col.Type))
		case 2:
			// IN list (occasionally negated): sargable lists become
			// multi-probe index paths; NULL members and NOT IN take the
			// scan path and must agree with it.
			if r.Intn(4) == 0 {
				fmt.Fprintf(&sb, "%s.%s NOT IN (", alias, col.Name)
			} else {
				fmt.Fprintf(&sb, "%s.%s IN (", alias, col.Name)
			}
			n := 1 + r.Intn(4)
			for j := 0; j < n; j++ {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString("?")
				args = append(args, diffProbe(r, col.Type))
			}
			sb.WriteString(")")
		case 3:
			// OR of two sargable disjuncts over one relation: the planner may
			// expand it into a deduplicated index union.
			col2 := tbl.cols[r.Intn(len(tbl.cols))]
			op1 := []string{"=", "=", "<", ">="}[r.Intn(4)]
			op2 := []string{"=", "=", "<=", ">"}[r.Intn(4)]
			fmt.Fprintf(&sb, "(%s.%s %s ? OR %s.%s %s ?)", alias, col.Name, op1, alias, col2.Name, op2)
			args = append(args, diffProbe(r, col.Type), diffProbe(r, col2.Type))
		case 4, 5:
			conj, alias := diffSubqueryConjunct(r, tables, join == 0, &args)
			sb.WriteString(conj)
			usesAlias = usesAlias || alias
		default:
			op := []string{"=", "=", "=", "<", "<=", ">", ">="}[r.Intn(7)]
			fmt.Fprintf(&sb, "%s.%s %s ?", alias, col.Name, op)
			args = append(args, diffProbe(r, col.Type))
		}
	}

	if r.Intn(2) == 0 {
		sb.WriteString(" ORDER BY ")
		desc := r.Intn(2) == 0
		mixed := r.Intn(4) == 0
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "u.%s", t1.cols[r.Intn(len(t1.cols))].Name)
			d := desc
			if mixed {
				d = r.Intn(2) == 0
			}
			if d {
				sb.WriteString(" DESC")
			}
		}
		if r.Intn(3) > 0 {
			fmt.Fprintf(&sb, " LIMIT %d", r.Intn(6))
			if r.Intn(3) == 0 {
				fmt.Fprintf(&sb, " OFFSET %d", r.Intn(4))
			}
		}
	}
	if usesAlias {
		// The subquery reads the outer row through a select-list alias, as
		// the paper's dominant-feature question reads `t`.
		selectList += fmt.Sprintf(", u.%s AS oa", aliasCol.Name)
	}
	return selectList + sb.String(), args
}

// diffNumericCols lists the columns of tbl that compare with one another
// without a type error (every non-TEXT column).
func diffNumericCols(tbl diffTable) []Column {
	var out []Column
	for _, c := range tbl.cols {
		if c.Type != TextType {
			out = append(out, c)
		}
	}
	return out
}

// diffSubqueryConjunct emits one WHERE conjunct built around an expression
// subquery over either table: [NOT] EXISTS, [NOT] IN, a quantified ALL/ANY
// comparison, a scalar aggregate, or (when allowNested) an EXISTS nested one
// level deeper. Nesting multiplies the rows every unmemoised arm evaluates,
// so it is kept off joined outer queries and its middle level always filters
// by an equality.
//
// About half are correlated. Outer references come qualified (u.c0),
// unqualified (a t1 column the inner table lacks), through the outer select
// alias oa, and, from the nested EXISTS, two levels up. Inner filters also
// use unqualified inner columns, which shadow outer columns of the same
// name. Only non-TEXT columns are compared and scalar subqueries aggregate,
// so no generated subquery can raise an evaluation error. usesAlias reports
// whether the caller must project `AS oa`.
func diffSubqueryConjunct(r *rand.Rand, tables []diffTable, allowNested bool, args *[]Value) (conj string, usesAlias bool) {
	t1 := tables[0]
	outerCols := diffNumericCols(t1)
	pick := func(cols []Column) Column { return cols[r.Intn(len(cols))] }
	cmp := func() string { return []string{"=", "=", "!=", "<", "<=", ">", ">="}[r.Intn(7)] }

	// outerRef names one outer value as seen from inside a subquery whose
	// own relations are innerTbls.
	outerRef := func(innerTbls ...diffTable) string {
		switch r.Intn(4) {
		case 0:
			usesAlias = true
			return "oa"
		case 1:
			// Unqualified: only a name no inner table has resolves outward.
			// Such a name is a t1 column t2 lacks, so it is unambiguous in
			// the outer query, which joins t2 at most.
			for _, c := range outerCols {
				shadowed := false
				for _, it := range innerTbls {
					for _, ic := range it.cols {
						shadowed = shadowed || ic.Name == c.Name
					}
				}
				if !shadowed {
					return c.Name
				}
			}
		}
		return "u." + pick(outerCols).Name
	}

	not := func() string {
		if r.Intn(3) == 0 {
			return "NOT "
		}
		return ""
	}

	// The subquery reads inner as w, filtered by 0-2 predicates; a
	// correlated one has at least one outer reference.
	inner := tables[r.Intn(2)]
	correlated := r.Intn(2) == 0
	var preds []string
	n := r.Intn(3)
	if correlated && n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		col := pick(diffNumericCols(inner))
		if correlated && i == 0 {
			preds = append(preds, fmt.Sprintf("w.%s %s %s", col.Name, cmp(), outerRef(inner)))
			continue
		}
		ref := "w." + col.Name
		if r.Intn(2) == 0 {
			ref = col.Name // unqualified: the inner column shadows any outer one
		}
		preds = append(preds, fmt.Sprintf("%s %s ?", ref, cmp()))
		*args = append(*args, diffProbe(r, col.Type))
	}
	from := func() string {
		if len(preds) == 0 {
			return " FROM " + inner.name + " w"
		}
		return " FROM " + inner.name + " w WHERE " + strings.Join(preds, " AND ")
	}

	form := r.Intn(9)
	if form == 8 && !allowNested {
		form = 0
	}
	lhs, col := pick(outerCols), pick(diffNumericCols(inner))
	switch form / 2 {
	case 0:
		return fmt.Sprintf("%sEXISTS (SELECT *%s)", not(), from()), usesAlias
	case 1:
		return fmt.Sprintf("u.%s %sIN (SELECT w.%s%s)", lhs.Name, not(), col.Name, from()), usesAlias
	case 2:
		quant := []string{"ALL", "ANY"}[r.Intn(2)]
		return fmt.Sprintf("u.%s %s %s (SELECT w.%s%s)", lhs.Name, cmp(), quant, col.Name, from()), usesAlias
	case 3:
		agg := []string{"MAX(w.", "MIN(w.", "COUNT(w."}[r.Intn(3)] + col.Name + ")"
		if r.Intn(4) == 0 {
			agg = "COUNT(*)"
		}
		return fmt.Sprintf("u.%s %s (SELECT %s%s)", lhs.Name, cmp(), agg, from()), usesAlias
	default:
		// The innermost subquery references the query two levels up (u or
		// oa) and its immediate parent w.
		inner2 := tables[r.Intn(2)]
		preds = append(preds, fmt.Sprintf("w.%s = ?", col.Name))
		*args = append(*args, diffProbe(r, col.Type))
		preds = append(preds, fmt.Sprintf("%sEXISTS (SELECT * FROM %s x WHERE x.%s %s w.%s AND x.%s %s %s)",
			not(), inner2.name, pick(diffNumericCols(inner2)).Name, cmp(), pick(diffNumericCols(inner)).Name,
			pick(diffNumericCols(inner2)).Name, cmp(), outerRef(inner, inner2)))
		return fmt.Sprintf("%sEXISTS (SELECT *%s)", not(), from()), usesAlias
	}
}

// runDiffCase builds one random schema and checks every generated query for
// divergence (results, order, columns, and error presence) between the
// planned execution, the DisableIndexScan scan baseline, the fully-ablated
// nested-loop path, the DisableHashJoin arm (index scans on, so every
// indexed equi-join runs as an index nested loop, NaN outer keys included),
// and the planned execution with subquery memoisation off. Halfway through, ANALYZE builds statistics so the second half diffs
// cost-based plans (covering scans, index unions, intersection-vs-single-path
// flips) against the same baselines.
func runDiffCase(t testing.TB, seed int64, queries int) {
	r := rand.New(rand.NewSource(seed))
	db, tables := buildDiffDB(t, r)
	run := func(sql string, args []Value, disableIndex, disableHash bool) (*Result, error) {
		db.DisableIndexScan = disableIndex
		db.DisableHashJoin = disableHash
		defer func() {
			db.DisableIndexScan = false
			db.DisableHashJoin = false
		}()
		return db.Query(sql, args...)
	}
	for q := 0; q < queries; q++ {
		if q == queries/2 {
			if _, err := db.Exec("ANALYZE"); err != nil {
				t.Fatalf("seed %d: ANALYZE: %v", seed, err)
			}
		}
		sql, args := buildDiffQuery(r, tables)
		indexed, ierr := run(sql, args, false, false)
		scanned, serr := run(sql, args, true, false)
		nested, nerr := run(sql, args, true, true)
		indexNL, xerr := run(sql, args, false, true)
		direct, derr := queryNoMemo(t, db, sql, args)
		if (ierr == nil) != (serr == nil) || (nerr == nil) != (serr == nil) || (xerr == nil) != (ierr == nil) || (derr == nil) != (ierr == nil) {
			t.Fatalf("seed %d: %s %v: indexed err=%v scan err=%v nested err=%v index-nl err=%v unmemoised err=%v",
				seed, sql, args, ierr, serr, nerr, xerr, derr)
		}
		if ierr != nil {
			continue
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("seed %d: %s %v:\nindexed: %+v\nscan:    %+v", seed, sql, args, indexed, scanned)
		}
		if !reflect.DeepEqual(indexed, nested) {
			t.Fatalf("seed %d: %s %v:\nindexed: %+v\nnested:  %+v", seed, sql, args, indexed, nested)
		}
		if !reflect.DeepEqual(indexed, indexNL) {
			t.Fatalf("seed %d: %s %v:\nindexed:  %+v\nindex-nl: %+v", seed, sql, args, indexed, indexNL)
		}
		if !reflect.DeepEqual(indexed, direct) {
			t.Fatalf("seed %d: %s %v:\nmemoised:   %+v\nunmemoised: %+v", seed, sql, args, indexed, direct)
		}
	}
}

// queryNoMemo is db.Query with subquery memoisation off: every subquery
// runs once per evaluation, the reference the memoised result must equal.
func queryNoMemo(t testing.TB, db *DB, sql string, args []Value) (*Result, error) {
	st, err := Prepare(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ex := &executor{db: db, params: args, adhoc: true, noMemo: true}
	return ex.execSelect(st.stmt.(*SelectStmt), nil)
}

// TestDifferentialPlannerParity is the CI lock on the planner: 200 random
// schemas x 15 queries each, indexed execution must equal scan execution
// row for row.
func TestDifferentialPlannerParity(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		runDiffCase(t, seed, 15)
	}
}

// TestDifferentialConcurrentReads replays one generated workload from many
// goroutines against a shared database right after a mutation, so the lazy
// composite-index rebuilds race with concurrent readers (meaningful under
// -race); every goroutine must see identical results.
func TestDifferentialConcurrentReads(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db, tables := buildDiffDB(t, r)
	type q struct {
		sql  string
		args []Value
		want *Result
	}
	var qs []q
	for len(qs) < 8 {
		sql, args := buildDiffQuery(r, tables)
		res, err := db.Query(sql, args...)
		if err != nil {
			continue
		}
		qs = append(qs, q{sql, args, res})
	}
	// Re-derive expectations after a mutation, then hammer concurrently:
	// the first readers race to rebuild every stale index.
	if _, err := db.Exec("DELETE FROM t1 WHERE c0 = 0"); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		res, err := db.Query(qs[i].sql, qs[i].args...)
		if err != nil {
			t.Fatal(err)
		}
		qs[i].want = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, qq := range qs {
					res, err := db.Query(qq.sql, qq.args...)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res, qq.want) {
						errs <- fmt.Errorf("%s: concurrent result diverged", qq.sql)
						return
					}
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

// FuzzPlannerParity drives the same generator from fuzzed seeds; the CI
// fuzz step runs it with a short time budget, and any reproducer the fuzzer
// finds is a single int64 that replays deterministically.
func FuzzPlannerParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runDiffCase(t, seed, 8)
	})
}
