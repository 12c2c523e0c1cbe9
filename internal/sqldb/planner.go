package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"justintime/internal/sqldb/pager"
)

// This file is the structural access-path planner behind SELECT execution:
// it decides, per query level, how the first FROM table is scanned (full
// scan, one single/composite index scan, or an impossible NULL probe) and
// whether an ORDER BY ... LIMIT can stream top-k rows out of a sorted index
// instead of materializing and sorting. Index nested-loop joins live in
// exec.go next to the other join strategies.
//
// Error parity with the scan path is the planner's contract (the
// differential harness asserts it): an incomparable probe falls back to
// the full scan so the type error surfaces identically, and when a plan
// eliminates every row of a non-empty table one sentinel row is kept so
// row-independent errors in residual predicates (an unknown column, say)
// still surface. Row-dependent errors on rows the plan pruned are not
// re-raised — like any planner, choosing a plan that never evaluates a
// predicate on a pruned row also skips that row's evaluation errors.

// colSarg accumulates the index-usable constraints on one column of the
// scan table: at most one equality probe (first wins; later equalities stay
// residual), at most one IN list (likewise), and the tightest lower/upper
// bounds.
type colSarg struct {
	eq       *Value
	in       []Value // IN-list probes: deduplicated, non-NULL; first list wins
	lo, hi   *Value
	loStrict bool
	hiStrict bool
}

func (s *colSarg) tightenLo(v Value, strict bool) {
	if s.lo == nil {
		s.lo, s.loStrict = &v, strict
		return
	}
	if c, _ := Compare(v, *s.lo); c > 0 || (c == 0 && strict && !s.loStrict) {
		s.lo, s.loStrict = &v, strict
	}
}

func (s *colSarg) tightenHi(v Value, strict bool) {
	if s.hi == nil {
		s.hi, s.hiStrict = &v, strict
		return
	}
	if c, _ := Compare(v, *s.hi); c < 0 || (c == 0 && strict && !s.hiStrict) {
		s.hi, s.hiStrict = &v, strict
	}
}

func (s *colSarg) hasRange() bool { return s.lo != nil || s.hi != nil }

// sargSet is every per-column constraint extracted from the WHERE conjuncts
// of one query level, keyed by column position of the scan table.
type sargSet struct {
	byCol map[int]*colSarg
	// empty records a NULL probe on an indexable column: the conjunct is
	// AND-ed into WHERE and a comparison with NULL is never TRUE, so no row
	// can survive.
	empty bool
}

// sarg is one index-usable WHERE conjunct in raw form: column op constant,
// with the constant already evaluated (op "between" carries both bounds, op
// "in" carries the member list).
type sarg struct {
	ci   int
	op   string
	v    Value
	hi   Value
	list []Value
}

// collectSargs extracts the sargable conjuncts of sel.Where that touch an
// indexed column of the scan table. ok=false demands a full-scan fallback
// (an incomparable probe must surface its type error exactly as the scan
// path would).
func (ex *executor) collectSargs(t *Table, lv *level, parent *scope) (sargSet, bool) {
	var conjs []Expr
	collectConjuncts(lv.sel.Where, &conjs)
	set := sargSet{byCol: make(map[int]*colSarg)}
	indexed := t.indexedCols()
	for _, c := range conjs {
		sg, ok := ex.sargable(c, lv, parent)
		if !ok || !indexed[sg.ci] {
			continue // stays residual
		}
		colType := t.Cols[sg.ci].Type
		if sg.op == "in" {
			// NULL members never match and drop out (a list of only NULLs
			// matches nothing); members are deduplicated under Compare
			// equality (numbers by value, so 1, 1.0, TRUE and -0.0/0.0
			// coincide) so the per-member position sets of a multi-probe
			// stay disjoint.
			var vals []Value
			seen := make(map[Value]bool, len(sg.list))
			for _, v := range sg.list {
				if v.IsNull() {
					continue
				}
				if !comparableWith(colType, v) {
					return sargSet{}, false
				}
				k := v
				if f, ok := v.AsFloat(); ok {
					if f == 0 {
						f = 0 // -0.0 is 0.0 under Compare
					}
					k = Float(f)
				}
				if seen[k] {
					continue
				}
				seen[k] = true
				vals = append(vals, v)
			}
			if len(vals) == 0 {
				set.empty = true
				continue
			}
			cs := set.byCol[sg.ci]
			if cs == nil {
				cs = &colSarg{}
				set.byCol[sg.ci] = cs
			}
			if cs.in == nil {
				cs.in = vals
			}
			continue
		}
		if sg.v.IsNull() || (sg.op == "between" && sg.hi.IsNull()) {
			set.empty = true
			continue
		}
		if !comparableWith(colType, sg.v) || (sg.op == "between" && !comparableWith(colType, sg.hi)) {
			return sargSet{}, false
		}
		cs := set.byCol[sg.ci]
		if cs == nil {
			cs = &colSarg{}
			set.byCol[sg.ci] = cs
		}
		switch sg.op {
		case "=":
			if cs.eq == nil {
				v := sg.v
				cs.eq = &v
			}
		case "<":
			cs.tightenHi(sg.v, true)
		case "<=":
			cs.tightenHi(sg.v, false)
		case ">":
			cs.tightenLo(sg.v, true)
		case ">=":
			cs.tightenLo(sg.v, false)
		case "between":
			cs.tightenLo(sg.v, false)
			cs.tightenHi(sg.hi, false)
		}
	}
	return set, true
}

// sargable decides whether one conjunct has the shape `column op constant`
// (either orientation, or BETWEEN with constant bounds), where the column is
// one of the scan table's and "constant" means: no reference to anything of
// this query level, so the value is fixed for the whole scan (literals,
// parameters, and correlated references to enclosing scopes all qualify).
// Constants are evaluated in the enclosing scope, which holds every value
// they read.
func (ex *executor) sargable(c Expr, lv *level, parent *scope) (sarg, bool) {
	switch n := c.(type) {
	case *BinaryExpr:
		if n.Quant != "" || n.Sub != nil {
			return sarg{}, false
		}
		switch n.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			return sarg{}, false
		}
		if ci, ok := ex.scanColumn(n.L, lv); ok && ex.outerConst(n.R, lv) {
			v, err := ex.eval(n.R, parent)
			if err != nil {
				return sarg{}, false
			}
			return sarg{ci: ci, op: n.Op, v: v}, true
		}
		if ci, ok := ex.scanColumn(n.R, lv); ok && ex.outerConst(n.L, lv) {
			v, err := ex.eval(n.L, parent)
			if err != nil {
				return sarg{}, false
			}
			return sarg{ci: ci, op: flipCmp(n.Op), v: v}, true
		}
	case *InExpr:
		if n.Not || n.Sub != nil {
			return sarg{}, false
		}
		ci, ok := ex.scanColumn(n.E, lv)
		if !ok {
			return sarg{}, false
		}
		vals := make([]Value, 0, len(n.List))
		for _, item := range n.List {
			if !ex.outerConst(item, lv) {
				return sarg{}, false
			}
			v, err := ex.eval(item, parent)
			if err != nil {
				return sarg{}, false
			}
			vals = append(vals, v)
		}
		return sarg{ci: ci, op: "in", list: vals}, true
	case *BetweenExpr:
		if n.Not {
			return sarg{}, false
		}
		ci, ok := ex.scanColumn(n.E, lv)
		if !ok || !ex.outerConst(n.Lo, lv) || !ex.outerConst(n.Hi, lv) {
			return sarg{}, false
		}
		lo, err := ex.eval(n.Lo, parent)
		if err != nil {
			return sarg{}, false
		}
		hi, err := ex.eval(n.Hi, parent)
		if err != nil {
			return sarg{}, false
		}
		return sarg{ci: ci, op: "between", v: lo, hi: hi}, true
	}
	return sarg{}, false
}

// flipCmp mirrors a comparison for the `constant op column` orientation.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// scanColumn returns the scan table column e names, or false when e is not
// a reference to a column of lv's first FROM relation.
func (ex *executor) scanColumn(e Expr, lv *level) (int, bool) {
	b, ok := ex.column(e, lv)
	return b.col, ok && b.rel == 0
}

// outerConst reports whether e reads nothing of query level lv, making it
// constant for the whole scan. Only literals, parameters, outer references
// and arithmetic or scalar functions over them qualify.
func (ex *executor) outerConst(e Expr, lv *level) bool {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *Literal, *ParamExpr, *UnaryExpr:
		case *ColumnRef:
			b, bound := ex.refs[n]
			ok = ok && bound && b.err == nil && b.lvl != lv
		case *BinaryExpr:
			ok = ok && n.Quant == "" && n.Sub == nil
		case *FuncCall:
			ok = ok && !n.Star && !aggregateFuncs[n.Name]
		default:
			ok = false // subqueries, CASE, LIKE, ...: conservatively local
		}
		return ok
	}, nil)
	return ok
}

// accessPath is one usable way to probe one index: equality on a leading
// prefix of its columns, optionally followed by an IN multi-probe or a range
// on the next column (mutually exclusive, both terminal).
type accessPath struct {
	ix  *tableIndex
	eq  []Value  // probes for ix.cols[:len(eq)]
	in  []Value  // multi-probe members for ix.cols[len(eq)]
	rng *colSarg // optional bounds on ix.cols[len(eq)]
}

// usedCols is the number of leading index columns the path constrains.
func (p accessPath) usedCols() int {
	n := len(p.eq)
	if len(p.in) > 0 || p.rng != nil {
		n++
	}
	return n
}

// describe renders the path for EXPLAIN: eq columns as "col=", an IN
// multi-probe as "col in(n)", the range column as "col range".
func (p accessPath) describe(t *Table) string {
	parts := make([]string, 0, p.usedCols())
	for i := range p.eq {
		parts = append(parts, t.Cols[p.ix.cols[i]].Name+"=")
	}
	switch {
	case len(p.in) > 0:
		parts = append(parts, fmt.Sprintf("%s in(%d)", t.Cols[p.ix.cols[len(p.eq)]].Name, len(p.in)))
	case p.rng != nil:
		parts = append(parts, t.Cols[p.ix.cols[len(p.eq)]].Name+" range")
	}
	return fmt.Sprintf("%s (%s)", p.ix.name, strings.Join(parts, ", "))
}

// buildPaths derives every usable access path from the table's indexes and
// the collected sargs: the longest equality prefix of each index, plus an IN
// multi-probe or a range on the following column when one exists (IN wins —
// it probes exact keys where a range walks between bounds).
func buildPaths(t *Table, set sargSet) []accessPath {
	var out []accessPath
	for _, ix := range t.indexes {
		var eq []Value
		for _, ci := range ix.cols {
			cs := set.byCol[ci]
			if cs == nil || cs.eq == nil {
				break
			}
			eq = append(eq, *cs.eq)
		}
		var in []Value
		var rng *colSarg
		if len(eq) < len(ix.cols) {
			if cs := set.byCol[ix.cols[len(eq)]]; cs != nil {
				switch {
				case len(cs.in) > 0:
					in = cs.in
				case cs.hasRange():
					rng = cs
				}
			}
		}
		if len(eq) == 0 && in == nil && rng == nil {
			continue
		}
		out = append(out, accessPath{ix: ix, eq: eq, in: in, rng: rng})
	}
	return out
}

// choosePath picks the one path a scan executes, in structural order: most
// constrained columns first, equality beating range, covering beating
// non-covering, narrower indexes beating wider ones, name as the
// deterministic tiebreak. The second result reports whether the path's
// index holds every column the statement reads (see coveringRefs), so the
// scan is answered from key tuples alone.
func choosePath(paths []accessPath, coverCols map[int]bool, coverOK bool) (accessPath, bool) {
	covers := func(p accessPath) bool {
		if !coverOK {
			return false
		}
		for ci := range coverCols {
			if !slices.Contains(p.ix.cols, ci) {
				return false
			}
		}
		return true
	}
	less := func(a, b accessPath) bool {
		if a.usedCols() != b.usedCols() {
			return a.usedCols() > b.usedCols()
		}
		if len(a.eq) != len(b.eq) {
			return len(a.eq) > len(b.eq)
		}
		if ca, cb := covers(a), covers(b); ca != cb {
			return ca
		}
		if len(a.ix.cols) != len(b.ix.cols) {
			return len(a.ix.cols) < len(b.ix.cols)
		}
		return a.ix.name < b.ix.name
	}
	best := paths[0]
	for _, p := range paths[1:] {
		if less(p, best) {
			best = p
		}
	}
	return best, covers(best)
}

// pathPositions computes the candidate row positions of one path, ascending
// (table order), in a fresh slice. NaN compares equal to every number, so
// nanRows always join the candidate set; when the path leaves trailing index
// columns unconstrained, rows missing from the key structures only because
// of a NULL in such a column could still match, so nullRows join too (the
// residual WHERE filters both). The result is a superset of the rows the
// full WHERE keeps.
func pathPositions(p accessPath) []int {
	var nulls []int
	if p.usedCols() < len(p.ix.cols) {
		nulls = p.ix.nullRows
	}
	var pos []int
	switch {
	case len(p.in) > 0:
		// Multi-probe: one lookup per IN member. Members are deduplicated at
		// collection, so the per-member position sets are disjoint.
		probe := make([]Value, len(p.eq)+1)
		copy(probe, p.eq)
		for _, v := range p.in {
			probe[len(p.eq)] = v
			pos = append(pos, p.ix.lookupPrefixRange(probe, nil, nil, false, false)...)
		}
		pos = append(append(pos, nulls...), p.ix.nanRows...)
	default:
		var lo, hi *Value
		var loS, hiS bool
		if p.rng != nil {
			lo, hi, loS, hiS = p.rng.lo, p.rng.hi, p.rng.loStrict, p.rng.hiStrict
		}
		// The lookup result is shared with the index: Concat copies it.
		pos = slices.Concat(p.ix.lookupPrefixRange(p.eq, lo, hi, loS, hiS), nulls, p.ix.nanRows)
	}
	slices.Sort(pos)
	return pos
}

// indexScan tries to answer the sargable WHERE conjuncts on the first FROM
// table through one secondary index: a single (possibly composite) index
// scan, covering when the index holds every column the statement reads.
// It returns the filtered rows (a superset of the rows the full WHERE will
// keep — the residual WHERE still runs over every returned row) and whether
// an index was used. See the error-parity contract at the top of this file.
func (ex *executor) indexScan(t *Table, lv *level, parent *scope) ([][]Value, bool, error) {
	if t == nil || len(t.indexes) == 0 {
		return nil, false, nil
	}
	rel := lv.rels[0]
	set, ok := ex.collectSargs(t, lv, parent)
	if !ok {
		return nil, false, nil
	}
	if set.empty {
		// A NULL probe is AND-ed into WHERE, so no row can survive whatever
		// the paths; skip path choice but keep the sentinel-row contract.
		planCounts.emptyProbe.Add(1)
		ex.note("scan %s using impossible predicate (NULL probe)", rel.alias)
		ex.notePlan("empty_probe", 0)
		return ex.sentinelRows(t)
	}
	var planStart time.Time
	if ex.span != nil {
		planStart = time.Now()
	}
	built := buildPaths(t, set)
	if len(built) == 0 {
		return nil, false, nil
	}
	coverCols, coverOK := ex.coveringRefs(lv)
	path, covering := choosePath(built, coverCols, coverOK)
	var planDur time.Duration
	if ex.span != nil {
		planDur = time.Since(planStart)
	}
	if err := path.ix.ensure(t); err != nil {
		return nil, false, err
	}
	pos := pathPositions(path)
	shape := "index_scan"
	if covering {
		shape = "covering_scan"
		planCounts.coveringScan.Add(1)
	} else {
		planCounts.indexScan.Add(1)
	}
	if ex.trace != nil {
		kind := "index"
		if covering {
			kind = "covering index"
		}
		ex.note("scan %s using %s %s", rel.alias, kind, path.describe(t))
	}
	ex.notePlan(shape, planDur)
	if len(pos) == 0 && t.store.Len() > 0 {
		// Keep one sentinel row: the sargable conjuncts are not TRUE on it,
		// so the residual WHERE drops it — but row-independent errors in
		// other conjuncts still surface (see the error-parity contract).
		pos = []int{0}
	}
	if covering {
		rows, err := coveringRows(t, path, pos, ex.ptrack)
		if err != nil {
			return nil, false, err
		}
		return rows, true, nil
	}
	rows := make([][]Value, len(pos))
	for i, p := range pos {
		row, err := ex.storeGet(t, p)
		if err != nil {
			return nil, false, err
		}
		rows[i] = row
	}
	return rows, true, nil
}

// sentinelRows implements the empty-plan half of the error-parity contract:
// a non-empty table keeps row 0 (the residual WHERE drops it, but
// row-independent errors in other conjuncts still surface).
func (ex *executor) sentinelRows(t *Table) ([][]Value, bool, error) {
	if t.store.Len() == 0 {
		return [][]Value{}, true, nil
	}
	row, err := ex.storeGet(t, 0)
	if err != nil {
		return nil, false, err
	}
	return [][]Value{row}, true, nil
}

// coveringRefs gathers the scan-table columns the statement reads, when the
// query shape permits answering from index key tuples alone: one stored
// FROM table, no star projection, and no subquery anywhere in the
// statement's expressions (a subquery's scan reads whatever it likes).
// ok=false means covering can never apply to this statement.
func (ex *executor) coveringRefs(lv *level) (map[int]bool, bool) {
	sel := lv.sel
	if len(sel.From) != 1 {
		return nil, false
	}
	refs := make(map[int]bool)
	ok := true
	visit := func(x Expr) bool {
		// Names bound elsewhere read select aliases, enclosing scopes, or
		// nothing: none of them reads this table's rows.
		if ci, local := ex.scanColumn(x, lv); local {
			refs[ci] = true
		}
		return true
	}
	sub := func(*SelectStmt) { ok = false }
	for _, item := range sel.Items {
		if item.Star {
			return nil, false
		}
		walkExpr(item.Expr, visit, sub)
	}
	walkExpr(sel.Where, visit, sub)
	for _, g := range sel.GroupBy {
		walkExpr(g, visit, sub)
	}
	walkExpr(sel.Having, visit, sub)
	for _, o := range sel.OrderBy {
		walkExpr(o.Expr, visit, sub)
	}
	if !ok {
		return nil, false
	}
	return refs, true
}

// coveringFullScan answers a statement whose referenced columns all live in
// one index straight from its key structures, when no access path applies
// (including statements with no WHERE at all): the covering analog of the
// full scan. Every position is returned; WHERE, if any, stays residual.
// On paged tables this touches zero row pages.
func (ex *executor) coveringFullScan(t *Table, lv *level) ([][]Value, bool, error) {
	if t == nil || len(t.indexes) == 0 || ex.db.DisableIndexScan {
		return nil, false, nil
	}
	refs, ok := ex.coveringRefs(lv)
	if !ok {
		return nil, false, nil
	}
	var best *tableIndex
	for _, ix := range t.indexes {
		all := true
		for ci := range refs {
			found := false
			for _, ic := range ix.cols {
				if ic == ci {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all && (best == nil || len(ix.cols) < len(best.cols)) {
			best = ix // fewest columns: fewest store.Get fallbacks for NULL rows
		}
	}
	if best == nil {
		return nil, false, nil
	}
	if err := best.ensure(t); err != nil {
		return nil, false, err
	}
	pos := make([]int, t.store.Len())
	for i := range pos {
		pos[i] = i
	}
	rows, err := coveringRows(t, accessPath{ix: best}, pos, ex.ptrack)
	if err != nil {
		return nil, false, err
	}
	planCounts.coveringScan.Add(1)
	ex.note("scan %s using covering index %s", lv.rels[0].alias, best.name)
	ex.notePlan("covering_scan", 0)
	return rows, true, nil
}

// coveringRows synthesizes result rows for the chosen positions straight
// from the index key tuples — no row materialization, so zero page faults
// on paged tables. Columns the index does not cover are never read (the
// covering gate guarantees it) and stay NULL. Rows the key structures
// exclude are the exceptions: a single-column index's NULL rows synthesize
// as all-NULL (the one referenced column IS NULL there), while composite
// NULL rows, NaN rows and the sentinel row materialize through the store.
func coveringRows(t *Table, p accessPath, pos []int, tk *pager.Tracker) ([][]Value, error) {
	ix := p.ix
	tup := make(map[int][]Value, len(pos))
	addRange := func(start, end int) {
		for ki := start; ki < end; ki++ {
			for _, ri := range ix.keyRows(ki) {
				tup[ri] = ix.key(ki)
			}
		}
	}
	if len(p.in) > 0 {
		probe := make([]Value, len(p.eq)+1)
		copy(probe, p.eq)
		for _, v := range p.in {
			probe[len(p.eq)] = v
			s, e := ix.prefixRange(probe, nil, nil, false, false)
			addRange(s, e)
		}
	} else {
		var lo, hi *Value
		var loS, hiS bool
		if p.rng != nil {
			lo, hi, loS, hiS = p.rng.lo, p.rng.hi, p.rng.loStrict, p.rng.hiStrict
		}
		s, e := ix.prefixRange(p.eq, lo, hi, loS, hiS)
		addRange(s, e)
	}
	nulls := make(map[int]bool, len(ix.nullRows))
	for _, ri := range ix.nullRows {
		nulls[ri] = true
	}
	rows := make([][]Value, len(pos))
	for i, ri := range pos {
		if kt, ok := tup[ri]; ok {
			row := make([]Value, len(t.Cols))
			for j, ci := range ix.cols {
				row[ci] = kt[j]
			}
			rows[i] = row
			continue
		}
		if nulls[ri] && len(ix.cols) == 1 {
			rows[i] = make([]Value, len(t.Cols)) // the zero Value is NULL
			continue
		}
		row, err := storeGetTracked(t, ri, tk)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

// collectConjuncts flattens a WHERE tree over AND into its conjuncts.
func collectConjuncts(e Expr, out *[]Expr) {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		collectConjuncts(be.L, out)
		collectConjuncts(be.R, out)
		return
	}
	*out = append(*out, e)
}

// tryTopK streams ORDER BY ... LIMIT straight out of a sorted index instead
// of materializing and sorting the whole table. It applies when the query
// reads one stored table with no grouping/DISTINCT, every ORDER BY key is a
// bare column, all keys share one direction, and some index has the order
// keys as a contiguous column run preceded only by equality-constrained
// columns. Rows whose order key is NULL are not in the index; they are
// emitted from nullRows first (ascending; NULLs sort first) or last
// (descending), which is only well-defined for a single order key — other
// NULL configurations fall back to the general path.
func (ex *executor) tryTopK(lv *level, parent *scope) (*Result, bool, error) {
	sel := lv.sel
	if ex.db.DisableIndexScan || sel.Limit == nil || len(sel.OrderBy) == 0 {
		return nil, false, nil
	}
	if sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil || len(lv.aggs) > 0 {
		return nil, false, nil
	}
	if len(sel.From) != 1 || sel.From[0].Subquery != nil {
		return nil, false, nil
	}
	t, ok := ex.db.tables[sel.From[0].Name]
	if !ok || len(t.indexes) == 0 {
		return nil, false, nil
	}
	rel := lv.rels[0]

	// Every ORDER BY key must be a bare column of the table, one direction.
	desc := sel.OrderBy[0].Desc
	orderCols := make([]int, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		if o.Desc != desc {
			return nil, false, nil
		}
		ci, ok := ex.scanColumn(o.Expr, lv)
		if !ok {
			return nil, false, nil
		}
		orderCols[i] = ci
	}

	set, ok := ex.collectSargs(t, lv, parent)
	if !ok || set.empty {
		return nil, false, nil // scan fallback / impossible predicate: general path
	}

	// Find an index whose TRAILING columns are exactly the order run and
	// whose leading columns all carry equality sargs: the equality prefix
	// pins the leading key parts to one value, so key order within the
	// probed range is exactly (order keys, original row position) — the
	// same total order the stable scan sort produces. An order run that
	// stops short of the index's last column would let the unused trailing
	// columns reorder ties, so it never qualifies. Prefer the longest
	// equality prefix (narrowest key range), then creation order.
	var ix *tableIndex
	bestJ := -1
	for _, cand := range t.indexes {
		j := len(cand.cols) - len(orderCols)
		if j < 0 || j <= bestJ {
			continue
		}
		match := true
		for i, oc := range orderCols {
			if cand.cols[j+i] != oc {
				match = false
				break
			}
		}
		for i := 0; match && i < j; i++ {
			cs := set.byCol[cand.cols[i]]
			if cs == nil || cs.eq == nil {
				match = false
			}
		}
		if match {
			ix, bestJ = cand, j
		}
	}
	if ix == nil {
		return nil, false, nil
	}
	j := bestJ

	if err := ix.ensure(t); err != nil {
		return nil, true, err
	}
	if len(ix.nanRows) > 0 {
		// NaN has no place in the key order, and it matches every number
		// of an equality prefix: only the general sort reproduces that.
		return nil, false, nil
	}
	if len(ix.nullRows) > 0 && len(orderCols) > 1 {
		// With several order keys a NULL in a later key interleaves inside
		// each group of the earlier keys; only the general sort reproduces
		// that ordering.
		return nil, false, nil
	}

	off := 0
	if sel.Offset != nil {
		off = int(*sel.Offset)
		if off < 0 {
			return nil, true, fmt.Errorf("sqldb: negative OFFSET")
		}
	}
	lim := int(*sel.Limit)
	if lim < 0 {
		return nil, true, fmt.Errorf("sqldb: negative LIMIT")
	}
	need := off + lim

	eq := make([]Value, j)
	for i := 0; i < j; i++ {
		eq[i] = *set.byCol[ix.cols[i]].eq
	}
	// A range sarg on the first order column narrows the key range further;
	// rows outside it violate that conjunct, so skipping them is safe.
	var lo, hi *Value
	var loS, hiS bool
	if cs := set.byCol[ix.cols[j]]; cs != nil && cs.hasRange() {
		lo, hi, loS, hiS = cs.lo, cs.hi, cs.loStrict, cs.hiStrict
	}
	start, end := ix.prefixRange(eq, lo, hi, loS, hiS)

	var columns []string
	var out [][]Value
	processed := 0
	emit := func(ri int) (bool, error) {
		processed++
		row, rerr := ex.storeGet(t, ri)
		if rerr != nil {
			return true, rerr
		}
		sc := newRowScope(parent, lv, row)
		if sel.Where != nil {
			v, err := ex.eval(sel.Where, sc)
			if err != nil {
				return true, err
			}
			if !isTrue(v) {
				return false, nil
			}
		}
		vals, names, err := ex.projectRow(lv, sc)
		if err != nil {
			return true, err
		}
		columns = names
		out = append(out, vals)
		return len(out) >= need, nil
	}

	done := need == 0 // LIMIT 0 (without OFFSET) keeps nothing
	var err error
	emitNulls := func() {
		for _, ri := range ix.nullRows {
			if done || err != nil {
				return
			}
			done, err = emit(ri)
		}
	}
	emitKeys := func() {
		if !desc {
			for ki := start; ki < end && !done && err == nil; ki++ {
				for _, ri := range ix.keyRows(ki) {
					if done, err = emit(ri); done || err != nil {
						break
					}
				}
			}
			return
		}
		for ki := end - 1; ki >= start && !done && err == nil; ki-- {
			for _, ri := range ix.keyRows(ki) {
				if done, err = emit(ri); done || err != nil {
					break
				}
			}
		}
	}
	if !done {
		if desc {
			emitKeys()
			emitNulls() // NULL order keys sort last descending
		} else {
			emitNulls() // NULL order keys sort first ascending
			emitKeys()
		}
	}
	if err != nil {
		return nil, true, err
	}
	if processed == 0 && t.store.Len() > 0 {
		// Sentinel evaluation: the scan path runs WHERE (and, on survivors,
		// the projection) over every row even when LIMIT keeps none, so
		// row-independent errors must still surface here.
		if _, serr := emit(0); serr != nil {
			return nil, true, serr
		}
		out = out[:0]
	}

	if off > len(out) {
		off = len(out)
	}
	out = out[off:]
	if out == nil {
		out = [][]Value{} // match the general path's non-nil empty Rows
	}
	if columns == nil {
		if columns, err = staticColumns(sel, lv.rels); err != nil {
			return nil, true, err
		}
	}

	planCounts.topK.Add(1)
	ex.notePlan("top_k", 0)
	if ex.trace != nil {
		parts := make([]string, 0, j+len(orderCols))
		for i := 0; i < j; i++ {
			parts = append(parts, t.Cols[ix.cols[i]].Name+"=")
		}
		dir := "asc"
		if desc {
			dir = "desc"
		}
		for _, oc := range orderCols {
			parts = append(parts, t.Cols[oc].Name+" "+dir)
		}
		step := fmt.Sprintf("top-k scan %s using index %s (%s) limit %d", rel.alias, ix.name, strings.Join(parts, ", "), lim)
		if sel.Offset != nil {
			// The query's OFFSET, not the clamped one — matching the
			// general path's note so EXPLAIN text is plan-shape-stable.
			step += fmt.Sprintf(" offset %d", *sel.Offset)
		}
		ex.note("%s", step)
	}
	return &Result{Columns: columns, Rows: out}, true, nil
}
