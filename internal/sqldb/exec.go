package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// tuple is one combined row across the FROM relations of a query level.
type tuple [][]Value

// execSelect runs a SELECT with the given parent scope (nil at top level,
// the enclosing row scope for subqueries). A top-level SELECT binds its
// names, subqueries included, on entry.
func (ex *executor) execSelect(sel *SelectStmt, parent *scope) (*Result, error) {
	lv := ex.level(sel)
	if lv == nil {
		lv = ex.bindSelect(sel, nil)
	}
	if ex.trace != nil {
		ex.tracePush(sel)
		defer ex.tracePop()
	}

	// Consume the row cap on entry: it bounds only this statement's output.
	// Subqueries (which recurse here) must run uncapped — truncating an IN
	// list or a scalar subquery would change results, not just their size.
	capRows := ex.capRows
	ex.capRows = 0

	// --- Top-k fast path: ORDER BY ... LIMIT streamed from a sorted index.
	if res, ok, err := ex.tryTopK(lv, parent); ok {
		if err == nil && capRows > 0 && len(res.Rows) > capRows {
			res.Rows = res.Rows[:capRows]
		}
		return res, err
	}

	// --- Capped streaming fast path: a simple single-table SELECT under a
	// row cap stops producing as soon as the cap is reached, instead of
	// materializing every matching row and slicing afterwards.
	if capRows > 0 {
		if res, ok, err := ex.trySimpleCapped(lv, parent, capRows); ok {
			return res, err
		}
	}

	// --- FROM: materialize and join row sources.
	tuples, err := ex.execFrom(lv, parent)
	if err != nil {
		return nil, err
	}

	mkScope := func(tp tuple, aggs []Value) *scope {
		if tp == nil && len(lv.rels) > 0 {
			tp = make(tuple, len(lv.rels))
			for i, rel := range lv.rels {
				tp[i] = make([]Value, len(rel.cols)) // all NULL (empty-group projection)
			}
		}
		sc := newScope(parent, lv, tp)
		sc.aggs = aggs
		return sc
	}

	// --- WHERE.
	if sel.Where != nil {
		kept := tuples[:0]
		for _, tp := range tuples {
			v, err := ex.eval(sel.Where, mkScope(tp, nil))
			if err != nil {
				return nil, err
			}
			if isTrue(v) {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}

	// --- Grouping.
	grouped := len(sel.GroupBy) > 0 || len(lv.aggs) > 0

	type outRow struct {
		vals []Value // projected values
		keys []Value // order-by keys
	}
	var outputs []outRow

	orderKeys := func(sc *scope, projected []Value) ([]Value, error) {
		if len(sel.OrderBy) == 0 {
			return nil, nil
		}
		keys := make([]Value, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			// ORDER BY <ordinal> selects a projected column.
			if lit, ok := o.Expr.(*Literal); ok && lit.Val.Type() == IntType {
				idx, _ := lit.Val.AsInt()
				if idx < 1 || int(idx) > len(projected) {
					return nil, fmt.Errorf("sqldb: ORDER BY position %d out of range", idx)
				}
				keys[i] = projected[idx-1]
				continue
			}
			v, err := ex.eval(o.Expr, sc)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		return keys, nil
	}

	var columns []string
	if grouped {
		ex.note("group")
		groups, err := ex.groupTuples(sel, tuples, mkScope)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			agg, err := ex.computeAggregates(lv.aggs, g, mkScope)
			if err != nil {
				return nil, err
			}
			var rep tuple
			if len(g) > 0 {
				rep = g[0]
			}
			sc := mkScope(rep, agg)
			if sel.Having != nil {
				hv, err := ex.eval(sel.Having, sc)
				if err != nil {
					return nil, err
				}
				if !isTrue(hv) {
					continue
				}
			}
			vals, names, err := ex.projectRow(lv, sc)
			if err != nil {
				return nil, err
			}
			columns = names
			keys, err := orderKeys(sc, vals)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, outRow{vals: vals, keys: keys})
		}
	} else {
		if sel.Having != nil {
			return nil, fmt.Errorf("sqldb: HAVING requires aggregation or GROUP BY")
		}
		for _, tp := range tuples {
			sc := mkScope(tp, nil)
			vals, names, err := ex.projectRow(lv, sc)
			if err != nil {
				return nil, err
			}
			columns = names
			keys, err := orderKeys(sc, vals)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, outRow{vals: vals, keys: keys})
		}
	}

	// Column names must be available even with zero rows.
	if columns == nil {
		var err error
		if columns, err = staticColumns(sel, lv.rels); err != nil {
			return nil, err
		}
	}

	// --- DISTINCT.
	if sel.Distinct {
		ex.note("distinct")
		seen := make(map[string]bool, len(outputs))
		kept := outputs[:0]
		for _, o := range outputs {
			var sb strings.Builder
			for _, v := range o.vals {
				sb.WriteString(v.key())
				sb.WriteByte(0)
			}
			k := sb.String()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, o)
			}
		}
		outputs = kept
	}

	// --- ORDER BY (stable; NULLs sort first ascending, last descending).
	if len(sel.OrderBy) > 0 {
		ex.note("sort")
		var sortErr error
		sort.SliceStable(outputs, func(a, b int) bool {
			for i, o := range sel.OrderBy {
				va, vb := outputs[a].keys[i], outputs[b].keys[i]
				c, err := orderCompare(va, vb)
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	// --- LIMIT / OFFSET.
	if sel.Offset != nil {
		off := int(*sel.Offset)
		if off < 0 {
			return nil, fmt.Errorf("sqldb: negative OFFSET")
		}
		ex.note("offset %d", off)
		if off > len(outputs) {
			off = len(outputs)
		}
		outputs = outputs[off:]
	}
	if sel.Limit != nil {
		lim := int(*sel.Limit)
		if lim < 0 {
			return nil, fmt.Errorf("sqldb: negative LIMIT")
		}
		if lim < len(outputs) {
			outputs = outputs[:lim]
		}
		ex.note("limit %d", lim)
	}

	// Shapes too complex to stream (grouping, sorting, joins, ...) run in
	// full; the cap still bounds what the caller receives.
	if capRows > 0 && len(outputs) > capRows {
		outputs = outputs[:capRows]
	}

	res := &Result{Columns: columns, Rows: make([][]Value, len(outputs))}
	for i, o := range outputs {
		res.Rows[i] = o.vals
	}
	return res, nil
}

// trySimpleCapped streams a capped simple SELECT — one stored table, no
// grouping, DISTINCT, ordering, limit, or aggregates — producing at most
// capRows rows and stopping the moment the cap is reached. The WHERE clause
// runs over an index prefilter when the planner finds one (so only matching
// pages fault in on paged storage) and over a streaming store scan otherwise;
// either way, predicate and projection semantics are byte-identical to the
// general pipeline's, which remains the fallback for every other shape.
func (ex *executor) trySimpleCapped(lv *level, parent *scope, capRows int) (*Result, bool, error) {
	sel := lv.sel
	if len(sel.From) != 1 || sel.From[0].Subquery != nil ||
		len(sel.GroupBy) > 0 || sel.Having != nil || sel.Distinct ||
		len(sel.OrderBy) > 0 || sel.Limit != nil || sel.Offset != nil ||
		len(lv.aggs) > 0 {
		return nil, false, nil
	}
	t, ok := ex.db.tables[sel.From[0].Name]
	if !ok {
		return nil, false, nil // the general path owns the unknown-table error
	}
	rel := lv.rels[0]

	var columns []string
	out := make([][]Value, 0) // non-nil: Result.Rows is never nil
	emit := func(row []Value) (bool, error) {
		sc := newRowScope(parent, lv, row)
		if sel.Where != nil {
			v, err := ex.eval(sel.Where, sc)
			if err != nil {
				return false, err
			}
			if !isTrue(v) {
				return false, nil
			}
		}
		vals, names, err := ex.projectRow(lv, sc)
		if err != nil {
			return false, err
		}
		columns = names
		out = append(out, vals)
		return len(out) >= capRows, nil
	}

	prefiltered := false
	if sel.Where != nil && !ex.db.DisableIndexScan {
		rows, ok, err := ex.indexScan(t, lv, parent)
		if err != nil {
			return nil, true, err
		}
		if ok {
			prefiltered = true
			for _, row := range rows {
				if done, err := emit(row); err != nil {
					return nil, true, err
				} else if done {
					break
				}
			}
		}
	}
	if !prefiltered {
		planCounts.fullScan.Add(1)
		ex.note("scan %s", rel.alias)
		ex.notePlan("full_scan", 0)
		err := ex.storeScan(t, func(_ int, row []Value) error {
			done, err := emit(row)
			if err != nil {
				return err
			}
			if done {
				return errCapReached
			}
			return nil
		})
		if err != nil && err != errCapReached {
			return nil, true, err
		}
	}
	if columns == nil {
		var err error
		if columns, err = staticColumns(sel, lv.rels); err != nil {
			return nil, true, err
		}
	}
	return &Result{Columns: columns, Rows: out}, true, nil
}

// errCapReached is the internal scan-stop sentinel of trySimpleCapped; it
// never escapes to callers.
var errCapReached = errors.New("sqldb: row cap reached")

// orderCompare orders values for ORDER BY: NULL sorts before everything;
// otherwise Compare semantics.
func orderCompare(a, b Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	return Compare(a, b)
}

func hasRel(rels []relation, alias string) bool {
	for _, r := range rels {
		if r.alias == alias {
			return true
		}
	}
	return false
}

// itemName derives the output column name of a projection item.
func itemName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *ColumnRef:
		return e.Column
	case *FuncCall:
		return strings.ToLower(e.Name)
	case *Literal:
		return e.Val.String()
	default:
		return "expr"
	}
}

// projectRow evaluates the select list against one row scope, returning the
// projected values and output column names. Shared by the general pipeline
// and the top-k streaming path so both produce identical projections.
func (ex *executor) projectRow(lv *level, sc *scope) ([]Value, []string, error) {
	rels := lv.rels
	var vals []Value
	var names []string
	for _, item := range lv.sel.Items {
		if item.Star {
			for i, rel := range rels {
				if item.StarTable != "" && rel.alias != item.StarTable {
					continue
				}
				vals = append(vals, sc.rows[i]...)
				names = append(names, rel.cols...)
			}
			if item.StarTable != "" && !hasRel(rels, item.StarTable) {
				return nil, nil, fmt.Errorf("sqldb: unknown relation %q in %s.*", item.StarTable, item.StarTable)
			}
			continue
		}
		v, err := ex.eval(item.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, v)
		names = append(names, itemName(item))
	}
	return vals, names, nil
}

// staticColumns computes output column names without any rows.
func staticColumns(sel *SelectStmt, rels []relation) ([]string, error) {
	var names []string
	for _, item := range sel.Items {
		if item.Star {
			found := false
			for _, rel := range rels {
				if item.StarTable != "" && rel.alias != item.StarTable {
					continue
				}
				names = append(names, rel.cols...)
				found = true
			}
			if item.StarTable != "" && !found {
				return nil, fmt.Errorf("sqldb: unknown relation %q in %s.*", item.StarTable, item.StarTable)
			}
			continue
		}
		names = append(names, itemName(item))
	}
	return names, nil
}

// execFrom materializes the FROM clause into joined tuples, one row per
// relation of lv.rels. When the first FROM item is a stored table and WHERE
// conjuncts are sargable against its secondary indexes, the table's rows are
// pre-filtered through the one access path the planner chooses (a single
// index scan) instead of scanned in full; the WHERE clause is still
// evaluated over the survivors, so residual predicates and three-valued
// logic behave exactly as in the scan path.
func (ex *executor) execFrom(lv *level, parent *scope) ([]tuple, error) {
	refs := lv.sel.From
	if len(refs) == 0 {
		// SELECT without FROM: one empty tuple.
		return []tuple{nil}, nil
	}
	tuples := []tuple{{}}
	for i, ref := range refs {
		// Stored tables come back with rows == nil: materialization is
		// deferred until a path actually needs every row, so an index scan
		// (or index nested-loop join) touches only the pages its matches
		// live on when the table is on paged storage.
		rows, t, err := ex.sourceRows(ref, parent)
		if err != nil {
			return nil, err
		}
		if i == 0 && ref.Subquery == nil {
			used := false
			if lv.sel.Where != nil && !ex.db.DisableIndexScan {
				filtered, ok, err := ex.indexScan(t, lv, parent)
				if err != nil {
					return nil, err
				}
				if ok {
					rows, used = filtered, true
				}
			}
			if !used {
				// No access path applies (or there is no WHERE at all) — a
				// covering index can still answer the statement from key
				// tuples without materializing a single row.
				filtered, ok, err := ex.coveringFullScan(t, lv)
				if err != nil {
					return nil, err
				}
				if ok {
					rows, used = filtered, true
				}
			}
			if !used {
				planCounts.fullScan.Add(1)
				ex.note("scan %s", lv.rels[0].alias)
				ex.notePlan("full_scan", 0)
				if rows, err = ex.storeAll(t); err != nil {
					return nil, err
				}
			}
		}
		if tuples, err = ex.join(lv, i, tuples, rows, t, parent); err != nil {
			return nil, err
		}
	}
	return tuples, nil
}

// fromAlias is the name a FROM item is visible under.
func fromAlias(ref TableRef) string {
	if ref.Alias != "" {
		return ref.Alias
	}
	return ref.Name
}

// sourceRows runs one FROM item's derived table, or finds its stored table
// (the *Table, so join planning can probe its indexes). Stored tables return
// nil rows — callers materialize via t.store.All() only on paths that truly
// need every row, keeping index access paths from faulting the whole table
// through the buffer pool.
func (ex *executor) sourceRows(ref TableRef, parent *scope) ([][]Value, *Table, error) {
	if ref.Subquery != nil {
		res, err := ex.execSelect(ref.Subquery, parent)
		if err != nil {
			return nil, nil, err
		}
		return res.Rows, nil, nil
	}
	t, ok := ex.db.tables[ref.Name]
	if !ok {
		return nil, nil, fmt.Errorf("sqldb: unknown table %q", ref.Name)
	}
	return nil, t, nil
}

// join combines the tuples over lv's first i relations with the rows of
// relation i, applying its optional join condition. Simple equi-joins probe
// a single-column index of the inner table with each outer row's key (index
// nested-loop join) when one exists, and fall back to a hash join (unless
// disabled), then to the nested loop. A LEFT JOIN keeps tuples with no
// matching row, padded with a NULL row for the new relation.
func (ex *executor) join(lv *level, i int, tuples []tuple, rows [][]Value, t *Table, parent *scope) ([]tuple, error) {
	rel, cond, leftJoin := lv.rels[i], lv.sel.From[i].JoinCond, lv.sel.From[i].LeftJoin
	kind := "join"
	if leftJoin {
		kind = "left join"
	}
	// Stored join sources arrive unmaterialized (rows == nil); the index
	// nested-loop path below never needs them, so materialization waits
	// until the hash join or the generic loop is actually chosen.
	materialize := func() error {
		if rows != nil || t == nil {
			return nil
		}
		var err error
		rows, err = ex.storeAll(t)
		return err
	}
	if cond != nil && i > 0 {
		if left, right, ok := ex.splitEquiJoin(cond, lv, i); ok {
			// Index nested-loop: the inner side must be a bare column of a
			// stored table with a single-column index (the inner rows are
			// then exactly the table's stored rows, so index positions
			// address them).
			if !ex.db.DisableIndexScan && t != nil {
				if b, isCol := ex.column(right, lv); isCol {
					// Probing beats building a hash table only while the
					// outer tuples do not outnumber the inner distinct
					// keys (each probe is a lookup either way; the hash
					// join also materializes and hashes the inner
					// table). An empty index costs nothing to probe.
					if ix := t.indexOn(b.col); ix != nil {
						if err := ix.ensure(t); err != nil {
							return nil, err
						}
						if nk := ix.nkeys(); ex.db.DisableHashJoin || nk == 0 || len(tuples) <= nk {
							planCounts.indexJoin.Add(1)
							ex.note("%s %s using index nested loop (%s)", kind, rel.alias, ix.name)
							return ex.indexNestedLoopJoin(lv, i, tuples, t, ix, left, parent)
						}
					}
				}
			}
			if !ex.db.DisableHashJoin {
				if err := materialize(); err != nil {
					return nil, err
				}
				planCounts.hashJoin.Add(1)
				ex.note("%s %s using hash join", kind, rel.alias)
				return ex.hashJoin(lv, i, tuples, rows, left, right, parent)
			}
			// Both fast paths unavailable: loop, but match by the same
			// Value.key() families as the hash/index joins so equi-join
			// semantics stay unified across strategies (BOOL never equals
			// numeric, -0.0 != 0.0, NULL never joins).
			if err := materialize(); err != nil {
				return nil, err
			}
			planCounts.nestedLoopJoin.Add(1)
			ex.note("%s %s using nested loop", kind, rel.alias)
			return ex.nestedEquiLoopJoin(lv, i, tuples, rows, left, right, parent)
		}
	}
	if i > 0 {
		if cond == nil {
			ex.note("cross join %s", rel.alias)
		} else {
			planCounts.nestedLoopJoin.Add(1)
			ex.note("%s %s using nested loop", kind, rel.alias)
		}
	}
	if err := materialize(); err != nil {
		return nil, err
	}
	var out []tuple
	for _, tp := range tuples {
		matched := false
		for _, r := range rows {
			nt := make(tuple, len(tp)+1)
			copy(nt, tp)
			nt[len(tp)] = r
			if cond != nil {
				v, err := ex.eval(cond, newScope(parent, lv, nt))
				if err != nil {
					return nil, err
				}
				if !isTrue(v) {
					continue
				}
			}
			matched = true
			out = append(out, nt)
		}
		if leftJoin && !matched {
			out = append(out, padTuple(tp, rel))
		}
	}
	return out, nil
}

// innerScope is the scope a join's inner key is evaluated in: relation i
// of lv holds r, and the relations before it hold nothing (the key reads
// none of them).
func innerScope(parent *scope, lv *level, i int, r []Value) *scope {
	rows := make([][]Value, i+1)
	rows[i] = r
	return newScope(parent, lv, rows)
}

// indexNestedLoopJoin matches each outer tuple against the inner table by
// probing ix (a single-column index on the join column) with the outer join
// key. Match semantics are byte-identical to the hash join's: candidates
// come from the normalized index bucket, then each is verified with the
// same Value.key() equality the hash join groups by (the index normalizes
// BOOL to its numeric key and -0.0 to 0.0, which Value.key() does not — the
// verification keeps the two join paths in exact agreement). NULL keys
// never join on either side. A NaN outer key probes no key (Compare would
// match every number) and takes its candidates from nanRows instead, where
// the key check keeps the inner NaN rows, as the hash join does.
func (ex *executor) indexNestedLoopJoin(lv *level, i int, tuples []tuple, t *Table, ix *tableIndex, left Expr, parent *scope) ([]tuple, error) {
	rel, leftJoin := lv.rels[i], lv.sel.From[i].LeftJoin
	col := ix.cols[0]
	probe := make([]Value, 1)
	var out []tuple
	for _, tp := range tuples {
		v, err := ex.eval(left, newScope(parent, lv, tp))
		if err != nil {
			return nil, err
		}
		matched := false
		if !v.IsNull() {
			probe[0] = v
			pk := v.key()
			cands := ix.nanRows
			if !isNaN(v) {
				cands = ix.lookupEqual(probe)
			}
			for _, ri := range cands {
				row, err := ex.storeGet(t, ri)
				if err != nil {
					return nil, err
				}
				if row[col].key() != pk {
					continue
				}
				nt := make(tuple, len(tp)+1)
				copy(nt, tp)
				nt[len(tp)] = row
				out = append(out, nt)
				matched = true
			}
		}
		if leftJoin && !matched {
			out = append(out, padTuple(tp, rel))
		}
	}
	return out, nil
}

// padTuple extends tp with an all-NULL row for rel.
func padTuple(tp tuple, rel relation) tuple {
	nt := make(tuple, len(tp)+1)
	copy(nt, tp)
	nt[len(tp)] = make([]Value, len(rel.cols))
	return nt
}

// nestedEquiLoopJoin is the equi-join fallback when both the index probe and
// the hash join are unavailable: a plain nested loop that matches by the
// same Value.key() equality the fast paths use. Inner keys are evaluated
// once per row, exactly as the hash join's build pass does, so evaluation
// errors surface identically across strategies.
func (ex *executor) nestedEquiLoopJoin(lv *level, i int, tuples []tuple, rows [][]Value, left, right Expr, parent *scope) ([]tuple, error) {
	rel, leftJoin := lv.rels[i], lv.sel.From[i].LeftJoin
	keys := make([]string, len(rows))
	null := make([]bool, len(rows))
	for ri, r := range rows {
		v, err := ex.eval(right, innerScope(parent, lv, i, r))
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			null[ri] = true // NULL never equi-joins
			continue
		}
		keys[ri] = v.key()
	}
	var out []tuple
	for _, tp := range tuples {
		v, err := ex.eval(left, newScope(parent, lv, tp))
		if err != nil {
			return nil, err
		}
		matched := false
		if !v.IsNull() {
			lk := v.key()
			for ri, r := range rows {
				if null[ri] || keys[ri] != lk {
					continue
				}
				nt := make(tuple, len(tp)+1)
				copy(nt, tp)
				nt[len(tp)] = r
				out = append(out, nt)
				matched = true
			}
		}
		if leftJoin && !matched {
			out = append(out, padTuple(tp, rel))
		}
	}
	return out, nil
}

// hashJoin builds a hash table over the new relation keyed by the right
// expression and probes it with the left expression over existing tuples.
func (ex *executor) hashJoin(lv *level, i int, tuples []tuple, rows [][]Value, left, right Expr, parent *scope) ([]tuple, error) {
	rel, leftJoin := lv.rels[i], lv.sel.From[i].LeftJoin
	index := make(map[string][]int)
	for ri, r := range rows {
		v, err := ex.eval(right, innerScope(parent, lv, i, r))
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue // NULL never equi-joins
		}
		index[v.key()] = append(index[v.key()], ri)
	}
	var out []tuple
	for _, tp := range tuples {
		v, err := ex.eval(left, newScope(parent, lv, tp))
		if err != nil {
			return nil, err
		}
		matches := []int(nil)
		if !v.IsNull() {
			matches = index[v.key()]
		}
		if len(matches) == 0 {
			if leftJoin {
				out = append(out, padTuple(tp, rel))
			}
			continue
		}
		for _, ri := range matches {
			nt := make(tuple, len(tp)+1)
			copy(nt, tp)
			nt[len(tp)] = rows[ri]
			out = append(out, nt)
		}
	}
	return out, nil
}

// splitEquiJoin decides whether cond, the ON condition of lv's relation i,
// is `leftExpr = rightExpr` with leftExpr reading only the relations before
// i and rightExpr only relation i (either orientation). Expressions that
// read anything else (an enclosing level, or nothing at all) or contain a
// subquery, an IN list or an aggregate are never split.
func (ex *executor) splitEquiJoin(cond Expr, lv *level, i int) (left, right Expr, ok bool) {
	be, isBin := cond.(*BinaryExpr)
	if !isBin || be.Op != "=" || be.Quant != "" {
		return nil, nil, false
	}
	switch l, r := ex.joinSide(be.L, lv, i), ex.joinSide(be.R, lv, i); {
	case l == "left" && r == "right":
		return be.L, be.R, true
	case l == "right" && r == "left":
		return be.R, be.L, true
	default:
		return nil, nil, false
	}
}

// joinSide reports which side of the join at lv's relation i expression e
// reads: "left", "right", or "" when it reads both, neither or something
// else.
func (ex *executor) joinSide(e Expr, lv *level, i int) string {
	side, ok := "", true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *ColumnRef:
			b, local := ex.column(n, lv)
			s := "left"
			if b.rel == i {
				s = "right"
			}
			ok = ok && local && (side == "" || side == s)
			side = s
		case *FuncCall:
			ok = ok && !aggregateFuncs[n.Name]
		case *InExpr:
			ok = false
		}
		return ok
	}, func(*SelectStmt) { ok = false })
	if !ok {
		return ""
	}
	return side
}

// groupTuples partitions tuples by the GROUP BY expressions (one group of
// all tuples when none), preserving first-seen order. A query with
// aggregates but no GROUP BY and no rows still produces one empty group.
func (ex *executor) groupTuples(sel *SelectStmt, tuples []tuple, mkScope func(tuple, []Value) *scope) ([][]tuple, error) {
	if len(sel.GroupBy) == 0 {
		return [][]tuple{tuples}, nil
	}
	index := make(map[string]int)
	var groups [][]tuple
	for _, tp := range tuples {
		sc := mkScope(tp, nil)
		var sb strings.Builder
		for _, ge := range sel.GroupBy {
			v, err := ex.eval(ge, sc)
			if err != nil {
				return nil, err
			}
			sb.WriteString(v.key())
			sb.WriteByte(0)
		}
		k := sb.String()
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], tp)
	}
	return groups, nil
}

// computeAggregates evaluates each aggregate call over the group's tuples.
func (ex *executor) computeAggregates(aggs []*FuncCall, group []tuple, mkScope func(tuple, []Value) *scope) ([]Value, error) {
	out := make([]Value, len(aggs))
	for i, agg := range aggs {
		v, err := ex.computeAggregate(agg, group, mkScope)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (ex *executor) computeAggregate(agg *FuncCall, group []tuple, mkScope func(tuple, []Value) *scope) (Value, error) {
	if agg.Star {
		if agg.Name != "COUNT" {
			return Value{}, fmt.Errorf("sqldb: %s(*) is not valid", agg.Name)
		}
		return Int(int64(len(group))), nil
	}
	if len(agg.Args) != 1 {
		return Value{}, fmt.Errorf("sqldb: %s takes exactly one argument", agg.Name)
	}
	var vals []Value
	seen := make(map[string]bool)
	for _, tp := range group {
		v, err := ex.eval(agg.Args[0], mkScope(tp, nil))
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if agg.Distinct {
			k := v.key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch agg.Name {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		allInt := true
		var sum float64
		var isum int64
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return Value{}, fmt.Errorf("sqldb: %s over non-numeric value %s", agg.Name, v)
			}
			sum += f
			if v.Type() == IntType {
				i, _ := v.AsInt()
				isum += i
			} else {
				allInt = false
			}
		}
		if agg.Name == "AVG" {
			return Float(sum / float64(len(vals))), nil
		}
		if allInt {
			return Int(isum), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := Compare(v, best)
			if err != nil {
				return Value{}, err
			}
			if (agg.Name == "MIN" && c < 0) || (agg.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return Value{}, fmt.Errorf("sqldb: unknown aggregate %s", agg.Name)
	}
}
