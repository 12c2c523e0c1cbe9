package sqldb

import (
	"encoding/binary"
	"strings"
)

// Subquery memoisation. Within one statement execution an expression
// subquery (EXISTS, IN (SELECT …), op ALL/ANY (SELECT …), scalar (SELECT …))
// runs at most once per distinct tuple of the outer values it reads: once in
// all when it reads none (PostgreSQL's InitPlan), once per correlation key
// otherwise (its cached SubPlan). The outer values are the slots the binder
// found the subquery's references reading outside it (level.outer), so the
// key is exactly what the subquery can see of its caller. The cache hangs off
// the subquery's level, which lives as long as the execution, so it never
// needs invalidating. A subquery still runs on first use only, so an empty
// outer side never runs it or raises its error, and errors are never cached.

// subqueryMemo is one subquery's EXPLAIN line and cached results.
type subqueryMemo struct {
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
	lv := ex.level(sel)
	m := lv.memo
	if m == nil {
		m = newSubqueryMemo(lv)
		lv.memo = m
	}
	if m.results == nil {
		return ex.execSelect(sel, sc)
	}
	var buf [64]byte
	key := buf[:0]
	for i := range lv.outer {
		v, err := ex.read(&lv.outer[i].b, sc)
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

// newSubqueryMemo prepares lv's cache, or records why it has none.
func newSubqueryMemo(lv *level) *subqueryMemo {
	if !lv.memoOK {
		return &subqueryMemo{label: "not memoised"}
	}
	m := &subqueryMemo{label: "memoised: uncorrelated", results: make(map[string]*Result)}
	if len(lv.outer) > 0 {
		names := make([]string, len(lv.outer))
		for i, o := range lv.outer {
			names[i] = o.ref.Column
			if o.ref.Table != "" {
				names[i] = o.ref.Table + "." + o.ref.Column
			}
		}
		m.label = "memoised on (" + strings.Join(names, ", ") + ")"
	}
	return m
}
