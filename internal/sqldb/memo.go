package sqldb

import (
	"encoding/binary"
	"strings"
)

// Subquery memoisation. Within one statement execution an expression
// subquery (EXISTS, IN (SELECT …), op ALL/ANY (SELECT …), scalar (SELECT …))
// runs at most once per distinct tuple of the outer values it reads: once in
// all when it reads none (PostgreSQL's InitPlan), once per correlation key
// otherwise (its cached SubPlan). The cache hangs off the executor, so it is
// dropped with the statement and never needs invalidating. A subquery still
// runs on first use only, so an empty outer side never runs it or raises its
// error, and errors are never cached.

// subqueryMemo is one subquery's outer dependencies and cached results.
type subqueryMemo struct {
	// outer holds the expressions through which the subquery reads its
	// enclosing scopes: column references that resolve nowhere inside it,
	// and aggregates no level inside it computes. Evaluated in the calling
	// scope, their values form the cache key.
	outer []Expr
	// label is the subquery's EXPLAIN line.
	label string
	// results maps a key to the subquery's result; nil when the subquery is
	// not memoisable (it reads a FROM-derived table or an unknown table).
	results map[string]*Result
}

// subquery returns sel's result for the calling scope sc, running it only
// when no earlier execution with the same outer values is cached. Callers
// must treat the result as read-only: it may be shared.
func (ex *executor) subquery(sel *SelectStmt, sc *scope) (*Result, error) {
	if ex.noMemo {
		return ex.execSelect(sel, sc)
	}
	m := ex.memo[sel]
	if m == nil {
		m = ex.analyseSubquery(sel)
		if ex.memo == nil {
			ex.memo = make(map[*SelectStmt]*subqueryMemo)
		}
		ex.memo[sel] = m
	}
	if m.results == nil {
		return ex.execSelect(sel, sc)
	}
	var buf [64]byte
	key := buf[:0]
	for _, e := range m.outer {
		v, err := ex.eval(e, sc)
		if err != nil {
			// The subquery itself may never read this value; running it
			// directly keeps whether and where it fails its own.
			return ex.execSelect(sel, sc)
		}
		key = appendMemoKey(key, v)
	}
	if res, ok := m.results[string(key)]; ok {
		return res, nil
	}
	k := string(key)
	res, err := ex.execSelect(sel, sc)
	if err != nil {
		return nil, err
	}
	m.results[k] = res
	return res, nil
}

// appendMemoKey appends an exact encoding of v: the type tag, then the
// payload bit for bit. Int(1), Float(1) and Bool(true) stay distinct, as do
// 0.0 and -0.0, and NULL is its own key.
func appendMemoKey(b []byte, v Value) []byte {
	b = append(b, byte(v.typ))
	switch v.typ {
	case IntType, FloatType:
		b = binary.LittleEndian.AppendUint64(b, v.n)
	case TextType:
		b = binary.AppendUvarint(b, uint64(len(v.s)))
		b = append(b, v.s...)
	case BoolType:
		b = append(b, byte(v.n))
	}
	return b
}

// memoFrame is one query level's names as seen from some point inside it.
type memoFrame struct {
	rels []memoRel
	// sel supplies the level's select-list aliases; nil inside a JOIN ON
	// condition, which is evaluated without them.
	sel *SelectStmt
	// inAlias is set inside an aliased select item. An alias is marked busy
	// while its expression evaluates, so a reference there to a busy alias
	// resolves further out: such a match does not prove the name local.
	inAlias bool
	aggs    []*FuncCall // aggregates this level computes
}

type memoRel struct {
	alias  string
	colIdx map[string]int
}

// memoAnalysis collects the outer dependencies of one subquery.
type memoAnalysis struct {
	ex    *executor
	outer []Expr
	names []string
	seen  map[string]bool
	ok    bool
}

// analyseSubquery resolves every name in sel, including inside nested
// subqueries, the way execution will: against each level's FROM relations
// (only those joined so far, inside an ON condition), then its select-list
// aliases, then the enclosing level. Whatever resolves past sel itself is an
// outer dependency. Where execution could resolve a name either way (a
// select alias that may be busy) it counts as outer: an extra key column
// costs only cache hits, a missing one would be wrong.
func (ex *executor) analyseSubquery(sel *SelectStmt) *subqueryMemo {
	a := &memoAnalysis{ex: ex, seen: make(map[string]bool), ok: true}
	a.level(sel, nil)
	if !a.ok {
		return &subqueryMemo{label: "not memoised"}
	}
	m := &subqueryMemo{outer: a.outer, results: make(map[string]*Result)}
	if len(a.outer) == 0 {
		m.label = "memoised: uncorrelated"
	} else {
		m.label = "memoised on (" + strings.Join(a.names, ", ") + ")"
	}
	return m
}

// pushFrame returns frames extended by f, never sharing the caller's
// backing array.
func pushFrame(frames []memoFrame, f memoFrame) []memoFrame {
	return append(frames[:len(frames):len(frames)], f)
}

func (a *memoAnalysis) level(sel *SelectStmt, frames []memoFrame) {
	rels := make([]memoRel, 0, len(sel.From))
	for _, ref := range sel.From {
		if ref.Subquery != nil {
			a.ok = false // a derived table's columns are known only at run time
			return
		}
		t, ok := a.ex.db.tables[ref.Name]
		if !ok {
			a.ok = false
			return
		}
		rels = append(rels, memoRel{alias: fromAlias(ref), colIdx: t.colIdx})
	}
	var aggs []*FuncCall
	for _, item := range sel.Items {
		collectAggregates(item.Expr, &aggs)
	}
	collectAggregates(sel.Having, &aggs)
	for _, o := range sel.OrderBy {
		collectAggregates(o.Expr, &aggs)
	}
	for i, ref := range sel.From {
		if ref.JoinCond != nil {
			a.expr(ref.JoinCond, pushFrame(frames, memoFrame{rels: rels[:i+1], aggs: aggs}))
		}
	}
	full := pushFrame(frames, memoFrame{rels: rels, sel: sel, aggs: aggs})
	a.expr(sel.Where, full)
	for _, g := range sel.GroupBy {
		a.expr(g, full)
	}
	a.expr(sel.Having, full)
	for _, o := range sel.OrderBy {
		a.expr(o.Expr, full)
	}
	inAlias := pushFrame(frames, memoFrame{rels: rels, sel: sel, inAlias: true, aggs: aggs})
	for _, item := range sel.Items {
		if item.Alias != "" {
			a.expr(item.Expr, inAlias)
		} else {
			a.expr(item.Expr, full)
		}
	}
}

func (a *memoAnalysis) expr(e Expr, frames []memoFrame) {
	switch n := e.(type) {
	case nil, *Literal, *ParamExpr:
	case *ColumnRef:
		if a.resolves(n, frames) {
			return
		}
		// Two references with one name resolve alike in the calling scope,
		// so the key needs only one of them.
		name := n.Column
		if n.Table != "" {
			name = n.Table + "." + n.Column
		}
		if !a.seen[name] {
			a.seen[name] = true
			a.outer = append(a.outer, n)
			a.names = append(a.names, name)
		}
	case *UnaryExpr:
		a.expr(n.E, frames)
	case *BinaryExpr:
		a.expr(n.L, frames)
		a.expr(n.R, frames)
		if n.Sub != nil {
			a.level(n.Sub, frames)
		}
	case *FuncCall:
		if aggregateFuncs[n.Name] && !ownsAggregate(frames[len(frames)-1], n) {
			// Looked up in the aggregate values of enclosing scopes.
			a.outer = append(a.outer, n)
			a.names = append(a.names, n.Name+"(…)")
		}
		for _, arg := range n.Args {
			a.expr(arg, frames)
		}
	case *IsNullExpr:
		a.expr(n.E, frames)
	case *InExpr:
		a.expr(n.E, frames)
		for _, item := range n.List {
			a.expr(item, frames)
		}
		if n.Sub != nil {
			a.level(n.Sub, frames)
		}
	case *BetweenExpr:
		a.expr(n.E, frames)
		a.expr(n.Lo, frames)
		a.expr(n.Hi, frames)
	case *LikeExpr:
		a.expr(n.E, frames)
		a.expr(n.Pattern, frames)
	case *ExistsExpr:
		a.level(n.Sub, frames)
	case *SubqueryExpr:
		a.level(n.Sub, frames)
	case *CaseExpr:
		a.expr(n.Operand, frames)
		for _, w := range n.Whens {
			a.expr(w.Cond, frames)
			a.expr(w.Then, frames)
		}
		a.expr(n.Else, frames)
	default:
		a.ok = false
	}
}

// resolves reports whether ref resolves at one of the analysed levels.
func (a *memoAnalysis) resolves(ref *ColumnRef, frames []memoFrame) bool {
	for i := len(frames) - 1; i >= 0; i-- {
		f := frames[i]
		for _, rel := range f.rels {
			if ref.Table != "" {
				if rel.alias == ref.Table {
					return true // a missing column errors here, whatever the outer row
				}
				continue
			}
			if _, ok := rel.colIdx[ref.Column]; ok {
				return true
			}
		}
		if ref.Table == "" && f.sel != nil && !f.inAlias {
			for _, item := range f.sel.Items {
				if item.Alias == ref.Column && item.Expr != nil {
					return true
				}
			}
		}
	}
	return false
}

func ownsAggregate(f memoFrame, fc *FuncCall) bool {
	for _, agg := range f.aggs {
		if agg == fc {
			return true
		}
	}
	return false
}
