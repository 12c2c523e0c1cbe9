package sqldb

import (
	"context"
	"strconv"
	"strings"
	"time"

	"justintime/internal/obs"
	"justintime/internal/sqldb/pager"
)

// This file is the executor's request-tracing seam. The ctx-aware Stmt entry
// points open a "sql.query" span when the context carries one, give the
// executor a pager.Tracker so paged-storage faults are attributed to the
// statement that caused them, and — for statements at or over the trace
// collector's slow threshold — attach the rendered plan text by re-deriving
// it through the EXPLAIN machinery. Untraced execution (Query/QueryCapped, or
// a context without an active span) pays nothing beyond a nil check.

// maxStmtAttr bounds the SQL text recorded on a span.
const maxStmtAttr = 200

func truncateSQL(s string) string {
	if len(s) > maxStmtAttr {
		return s[:maxStmtAttr] + "…"
	}
	return s
}

// QueryCtx is Query with trace propagation: when ctx carries an active
// obs.Span, execution runs under a "sql.query" child span annotated with the
// statement text, row count, plan shape, and any page-fault activity.
func (st *Stmt) QueryCtx(ctx context.Context, db *DB, args ...Value) (*Result, error) {
	return st.queryTraced(ctx, db, 0, args)
}

// QueryCappedCtx is QueryCapped with trace propagation (see QueryCtx).
func (st *Stmt) QueryCappedCtx(ctx context.Context, db *DB, maxRows int, args ...Value) (*Result, error) {
	return st.queryTraced(ctx, db, maxRows, args)
}

// queryTraced is the shared body of the Query entry points. maxRows <= 0
// means uncapped.
func (st *Stmt) queryTraced(ctx context.Context, db *DB, maxRows int, args []Value) (*Result, error) {
	if !st.IsSelect() {
		return nil, errQueryNotSelect
	}
	if err := st.checkArgs(args); err != nil {
		return nil, err
	}
	var span *obs.Span
	if parent := obs.FromContext(ctx); parent != nil {
		span = parent.StartChildAttrs("sql.query",
			obs.Attr{Key: "stmt", Val: truncateSQL(st.sql)})
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ex := &executor{db: db, params: args}
	if maxRows > 0 {
		ex.capRows = maxRows
	}
	if e, ok := st.stmt.(*ExplainStmt); ok {
		ex.capRows = 0 // EXPLAIN output is never capped
		res, err := ex.explain(e.Sel)
		span.End()
		return res, err
	}
	sel := st.stmt.(*SelectStmt)
	if span == nil {
		return ex.execSelect(sel, nil)
	}

	ex.span = span
	ex.ptrack = &ex.ptrackBuf
	res, err := ex.execSelect(sel, nil)
	if tk := ex.ptrack; tk.Faults > 0 || tk.Writebacks > 0 {
		span.Event("pager.faults", time.Duration(tk.FaultNs),
			obs.Attr{Key: "faults", Val: strconv.FormatInt(tk.Faults, 10)},
			obs.Attr{Key: "evictions", Val: strconv.FormatInt(tk.Evictions, 10)},
			obs.Attr{Key: "writebacks", Val: strconv.FormatInt(tk.Writebacks, 10)},
			obs.Attr{Key: "writeback_us", Val: strconv.FormatInt(tk.WritebackNs/1e3, 10)})
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return res, err
	}
	if span.EndAttrInt("rows", int64(len(res.Rows))) >= span.SlowThreshold() {
		// The statement is slow enough that its trace is guaranteed a slot in
		// the collector's slow ring — spend the extra work of rendering its
		// plan. The EXPLAIN machinery re-plans and re-executes the statement
		// under the same read lock; a plan depends only on the statement and
		// the rows, so the text is the plan that ran. Fast statements never
		// pay this.
		ex2 := &executor{db: db, params: args}
		if maxRows > 0 {
			ex2.capRows = maxRows
		}
		if pres, perr := ex2.explain(sel); perr == nil {
			lines := make([]string, len(pres.Rows))
			for i, r := range pres.Rows {
				lines[i], _ = r[0].AsText()
			}
			span.SetAttr("plan_text", strings.Join(lines, "\n"))
		}
	}
	return res, nil
}

// storeGet reads row i of t, charging a page fault (and any eviction or
// writeback it forces) to this statement's pool tracker when tracing is on.
func (ex *executor) storeGet(t *Table, i int) ([]Value, error) {
	return storeGetTracked(t, i, ex.ptrack)
}

// storeGetTracked is the free-function form of storeGet, for plan helpers
// that do not hang off the executor (coveringRows).
func storeGetTracked(t *Table, i int, tk *pager.Tracker) ([]Value, error) {
	if tk != nil {
		if pt, ok := t.store.(*PagedTable); ok {
			return pt.GetTracked(i, tk)
		}
	}
	return t.store.Get(i)
}

// storeScan is storeGet's counterpart for full scans.
func (ex *executor) storeScan(t *Table, fn func(i int, row []Value) error) error {
	if ex.ptrack != nil {
		if pt, ok := t.store.(*PagedTable); ok {
			return pt.ScanTracked(ex.ptrack, fn)
		}
	}
	return t.store.Scan(fn)
}

// storeAll materializes every row of t with fault attribution.
func (ex *executor) storeAll(t *Table) ([][]Value, error) {
	if ex.ptrack == nil {
		return t.store.All()
	}
	out := make([][]Value, 0, t.store.Len())
	err := ex.storeScan(t, func(_ int, row []Value) error {
		out = append(out, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// notePlan records one scan decision on the statement's trace span as a
// "plan" event: the chosen shape and the planning time d. Statements with
// several scans (joins, subqueries) record several decisions; the first is
// the statement's first access-path choice.
func (ex *executor) notePlan(shape string, d time.Duration) {
	if ex.span == nil {
		return
	}
	ex.span.Event("plan", d, obs.Attr{Key: "plan_shape", Val: shape})
}
