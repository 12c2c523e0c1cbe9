package sqldb

import "fmt"

// Name binding. Before a statement runs, the binder resolves every column
// reference in it once, against the database's current tables, and every
// later question about a name reads that answer: evaluation, the planner's
// sargable and covering checks, the equi-join split and the subquery memo.
//
// A name resolves against its own query level first, then the enclosing
// levels outward. Within one level it looks at the FROM relations (inside
// an ON condition only those joined so far), then at the select-list
// aliases (never inside an ON condition). A qualified name matches the
// first relation with that alias; an unqualified one must be a column of
// exactly one relation. An alias is busy while its own expression
// evaluates, and a reference that finds it busy resolves further out.
//
// Bindings belong to one execution (the executor), never to the statement:
// a prepared Stmt is shared across goroutines and databases whose tables
// differ.

// level is one query level of the statement being executed: a SELECT, or
// the target table of an UPDATE or DELETE.
type level struct {
	sel   *SelectStmt // nil for an UPDATE or DELETE target
	depth int         // number of enclosing scopes
	// rels holds the level's FROM relations. When one cannot be resolved (an
	// unknown table, or a derived table whose columns are unknown) it holds
	// those before it, and the level's names past that point stay unbound:
	// execution fails on that FROM item before it evaluates them.
	rels []relation
	// aggs lists the aggregates this level computes per group: those in its
	// select list, HAVING and ORDER BY, outside subqueries and outside other
	// aggregates' arguments.
	aggs []*FuncCall

	// memoOK reports that every level of this subquery reads only stored,
	// known tables, so its outer reads are exactly outer.
	memoOK bool
	// outer lists the reads that leave this level: one entry per outer slot,
	// in the order its first reference was bound.
	outer []outerRead
	// memo is the subquery's result cache (see memo.go).
	memo *subqueryMemo
}

// binding is what one column reference means in this execution: the slot
// it reads, or the error evaluating it raises.
type binding struct {
	slot
	// next is, for an alias, the resolution used while the alias is busy
	// (nil where the reference cannot find it busy).
	next *binding
	err  error
}

// slot is where a value lives: column col of FROM relation rel of level
// lvl (item is -1 then), or select item item of lvl, read through its alias.
type slot struct {
	lvl            *level
	rel, col, item int
}

// outerRead is a read that leaves a level: the first reference that made
// it, for EXPLAIN, and the binding that resolves it in the calling scope.
type outerRead struct {
	ref *ColumnRef
	b   binding
}

// aggSlot locates an aggregate's per-group value.
type aggSlot struct {
	lvl *level
	idx int
}

// frame is one level as seen from one point inside it.
type frame struct {
	lvl   *level
	rels  []relation // the relations visible here: a prefix inside ON
	outer *frame
	// aliases is false inside ON conditions and DML, which see no select
	// aliases. inAlias is set inside an aliased select item: evaluating it
	// marks its alias busy, so only there can a reference find one busy.
	aliases, inAlias bool
}

// bindSelect binds sel and every subquery in it, with outer as the
// enclosing frame (nil at top level).
func (ex *executor) bindSelect(sel *SelectStmt, outer *frame) *level {
	lv := &level{sel: sel, memoOK: true}
	if outer != nil {
		lv.depth = outer.lvl.depth + 1
	}
	if ex.levels == nil {
		ex.levels = ex.levelBuf[:0]
	}
	ex.levels = append(ex.levels, lv)
	for _, ref := range sel.From {
		var rel relation
		if ref.Subquery != nil {
			// A derived table runs in the enclosing scope, beside this level.
			lv.memoOK = false
			sub := ex.bindSelect(ref.Subquery, outer)
			if len(sub.rels) < len(ref.Subquery.From) {
				return lv
			}
			cols, err := staticColumns(ref.Subquery, sub.rels)
			if err != nil {
				return lv
			}
			rel = newRelation(ref.Alias, cols)
		} else {
			t, ok := ex.db.tables[ref.Name]
			if !ok {
				lv.memoOK = false
				return lv
			}
			rel = relationOf(t)
			rel.alias = fromAlias(ref)
		}
		lv.rels = append(lv.rels, rel)
		if ref.JoinCond != nil {
			ex.bindExpr(ref.JoinCond, &frame{lvl: lv, rels: lv.rels, outer: outer})
		}
	}

	collect := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			if fc, ok := x.(*FuncCall); ok && aggregateFuncs[fc.Name] {
				if ex.aggs == nil {
					ex.aggs = make(map[*FuncCall]aggSlot)
				}
				ex.aggs[fc] = aggSlot{lvl: lv, idx: len(lv.aggs)}
				lv.aggs = append(lv.aggs, fc)
				return false
			}
			return true
		}, nil)
	}
	for _, item := range sel.Items {
		collect(item.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}

	f := &frame{lvl: lv, rels: lv.rels, outer: outer, aliases: true}
	ex.bindExpr(sel.Where, f)
	for _, g := range sel.GroupBy {
		ex.bindExpr(g, f)
	}
	ex.bindExpr(sel.Having, f)
	for _, o := range sel.OrderBy {
		ex.bindExpr(o.Expr, f)
	}
	for _, item := range sel.Items {
		f.inAlias = item.Alias != ""
		ex.bindExpr(item.Expr, f)
	}
	return lv
}

// level returns the bound level of sel, or nil before sel is bound.
func (ex *executor) level(sel *SelectStmt) *level {
	for _, lv := range ex.levels {
		if lv.sel == sel {
			return lv
		}
	}
	return nil
}

// bindTarget binds the expressions of an UPDATE or DELETE, which see the
// rows of t and no aliases.
func (ex *executor) bindTarget(t *Table, exprs ...Expr) *level {
	lv := &level{rels: []relation{relationOf(t)}}
	f := &frame{lvl: lv, rels: lv.rels}
	for _, e := range exprs {
		ex.bindExpr(e, f)
	}
	return lv
}

// bindExpr binds every column reference and subquery in e as seen from f
// (nil where no relation is visible, as in INSERT ... VALUES).
func (ex *executor) bindExpr(e Expr, f *frame) {
	walkExpr(e, func(x Expr) bool {
		if ref, ok := x.(*ColumnRef); ok {
			ex.bindRef(ref, f)
		}
		return true
	}, func(sub *SelectStmt) {
		if lv := ex.bindSelect(sub, f); !lv.memoOK && f != nil {
			f.lvl.memoOK = false
		}
	})
}

func (ex *executor) bindRef(ref *ColumnRef, f *frame) {
	b := resolve(ref, f)
	if ex.refs == nil {
		ex.refs = make(map[*ColumnRef]binding)
	}
	ex.refs[ref] = b
	// Record the read on every enclosing level it leaves. An alias of a
	// level that the reference may find busy reads its fallback instead, so
	// that level reads through the fallback.
	cur := &b
	for g := f; g != nil; g = g.outer {
		d := g.lvl.depth
		for cur.err == nil && cur.lvl.depth >= d && cur.next != nil {
			cur = cur.next
		}
		if cur.err != nil || cur.lvl.depth >= d {
			return // read inside g, or never read at all
		}
		g.lvl.addOuter(ref, *cur)
	}
}

func (lv *level) addOuter(ref *ColumnRef, b binding) {
	for _, o := range lv.outer {
		if o.b.slot == b.slot {
			return
		}
	}
	lv.outer = append(lv.outer, outerRead{ref: ref, b: b})
}

// resolve applies the lookup order to ref from f outward.
func resolve(ref *ColumnRef, f *frame) binding {
	for ; f != nil; f = f.outer {
		if ref.Table != "" {
			for i, rel := range f.rels {
				if rel.alias != ref.Table {
					continue
				}
				if ci, ok := rel.colIdx[ref.Column]; ok {
					return binding{slot: slot{lvl: f.lvl, rel: i, col: ci, item: -1}}
				}
				return binding{err: fmt.Errorf("sqldb: relation %q has no column %q", ref.Table, ref.Column)}
			}
			continue
		}
		found := slot{rel: -1}
		for i, rel := range f.rels {
			if ci, ok := rel.colIdx[ref.Column]; ok {
				if found.rel >= 0 {
					return binding{err: fmt.Errorf("sqldb: ambiguous column %q", ref.Column)}
				}
				found = slot{lvl: f.lvl, rel: i, col: ci, item: -1}
			}
		}
		if found.rel >= 0 {
			return binding{slot: found}
		}
		if !f.aliases {
			continue
		}
		item := -1
		for i, it := range f.lvl.sel.Items {
			if it.Alias == ref.Column && it.Expr != nil {
				item = i // the last item with the alias wins
			}
		}
		if item >= 0 {
			b := binding{slot: slot{lvl: f.lvl, item: item}}
			if f.inAlias {
				next := resolve(ref, f.outer)
				b.next = &next
			}
			return b
		}
	}
	if ref.Table != "" {
		return binding{err: fmt.Errorf("sqldb: unknown column %s.%s", ref.Table, ref.Column)}
	}
	return binding{err: fmt.Errorf("sqldb: unknown column %q", ref.Column)}
}

// column returns the binding of a reference to a column of lv's relation
// rel, or false when ref means anything else.
func (ex *executor) column(e Expr, lv *level) (b binding, ok bool) {
	ref, isRef := e.(*ColumnRef)
	if !isRef {
		return binding{}, false
	}
	b, ok = ex.refs[ref]
	return b, ok && b.err == nil && b.lvl == lv && b.item < 0
}

// walkExpr calls visit on e and on every expression under it, parents
// first, skipping the children of a node for which visit returns false. It
// does not enter subqueries: it calls sub, when non-nil, on each one after
// the expressions beside it.
func walkExpr(e Expr, visit func(Expr) bool, sub func(*SelectStmt)) {
	if e == nil || !visit(e) {
		return
	}
	var s *SelectStmt
	switch n := e.(type) {
	case *UnaryExpr:
		walkExpr(n.E, visit, sub)
	case *BinaryExpr:
		walkExpr(n.L, visit, sub)
		walkExpr(n.R, visit, sub)
		s = n.Sub
	case *FuncCall:
		for _, a := range n.Args {
			walkExpr(a, visit, sub)
		}
	case *IsNullExpr:
		walkExpr(n.E, visit, sub)
	case *InExpr:
		walkExpr(n.E, visit, sub)
		for _, x := range n.List {
			walkExpr(x, visit, sub)
		}
		s = n.Sub
	case *BetweenExpr:
		walkExpr(n.E, visit, sub)
		walkExpr(n.Lo, visit, sub)
		walkExpr(n.Hi, visit, sub)
	case *LikeExpr:
		walkExpr(n.E, visit, sub)
		walkExpr(n.Pattern, visit, sub)
	case *CaseExpr:
		walkExpr(n.Operand, visit, sub)
		for _, w := range n.Whens {
			walkExpr(w.Cond, visit, sub)
			walkExpr(w.Then, visit, sub)
		}
		walkExpr(n.Else, visit, sub)
	case *ExistsExpr:
		s = n.Sub
	case *SubqueryExpr:
		s = n.Sub
	}
	if s != nil && sub != nil {
		sub(s)
	}
}
