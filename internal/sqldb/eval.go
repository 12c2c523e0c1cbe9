package sqldb

import (
	"fmt"
	"math"
	"strings"

	"justintime/internal/obs"
	"justintime/internal/sqldb/pager"
)

// relation is a named, typed row source visible in a scope (a FROM table,
// its alias, or a FROM subquery).
type relation struct {
	alias  string
	cols   []string
	colIdx map[string]int
}

func relationOf(t *Table) relation {
	return relation{alias: t.Name, cols: t.columnNames(), colIdx: t.colIdx}
}

// newRelation names the columns of a derived table; a duplicated name
// refers to its first column.
func newRelation(alias string, cols []string) relation {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := idx[c]; !dup {
			idx[c] = i
		}
	}
	return relation{alias: alias, cols: cols, colIdx: idx}
}

// scope holds the values one query level is evaluating: a row of each of its
// FROM relations, and while it projects a group, the group's aggregates.
// Names are not looked up here: the binder has already located each one as
// a slot of some enclosing level's scope (see bind.go).
type scope struct {
	parent *scope
	lvl    *level
	rows   [][]Value  // by FROM relation; a prefix while joining
	aggs   []Value    // by lvl.aggs index; nil outside grouped output
	busy   []bool     // by select item: its alias expression is evaluating
	one    [1][]Value // backs rows for a one-relation level (newRowScope)
}

func newScope(parent *scope, lvl *level, rows [][]Value) *scope {
	return &scope{parent: parent, lvl: lvl, rows: rows}
}

// newRowScope is newScope for a level that reads one relation.
func newRowScope(parent *scope, lvl *level, row []Value) *scope {
	sc := &scope{parent: parent, lvl: lvl, one: [1][]Value{row}}
	sc.rows = sc.one[:]
	return sc
}

// isTrue reports whether the three-valued result v is TRUE.
func isTrue(v Value) bool {
	b, ok := v.AsBool()
	return ok && b
}

func not3(v Value) Value {
	if v.IsNull() {
		return Null()
	}
	b, ok := v.AsBool()
	if !ok {
		return Null()
	}
	return Bool(!b)
}

// executor evaluates expressions and runs SELECT plans against a DB whose
// lock is already held by the caller. It binds each statement's names when
// the statement starts (see bind.go) and keeps the bindings for this
// execution only. params holds the positional arguments
// bound to `?` placeholders for this execution. trace, when non-nil,
// records every plan decision for EXPLAIN. capRows > 0 bounds the TOP-LEVEL
// statement's output to that many rows (see Stmt.QueryCapped); execSelect
// consumes it on entry so subqueries run uncapped.
// span and ptrack are the request-tracing seam (see tracing.go): span is the
// statement's "sql.query" trace span, ptrack accumulates the page faults this
// statement causes on paged storage. Both are nil when the statement runs
// untraced, and every use is nil-guarded, so the untraced path pays nothing.
type executor struct {
	db      *DB
	params  []Value
	trace   *planTrace
	capRows int
	span    *obs.Span
	ptrack  *pager.Tracker

	// ptrackBuf backs ptrack for traced statements so enabling fault
	// attribution costs no allocation (ptrack = &ptrackBuf).
	ptrackBuf pager.Tracker

	// levels, refs and aggs are this execution's name bindings: each query
	// level, what each column reference reads, and where each aggregate's
	// per-group value lives. levelBuf backs levels for small statements.
	levels   []*level
	levelBuf [4]*level
	refs     map[*ColumnRef]binding
	aggs     map[*FuncCall]aggSlot

	// noMemo runs every subquery directly instead of through its level's
	// result cache (see memo.go); only tests set it, to diff memoised
	// execution against direct execution.
	noMemo bool
}

// eval evaluates e in the given scope (which may be nil for constant
// expressions).
func (ex *executor) eval(e Expr, sc *scope) (Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *ParamExpr:
		if n.Index >= len(ex.params) {
			return Value{}, fmt.Errorf("sqldb: parameter ?%d is not bound (statement executed with %d argument(s))", n.Index+1, len(ex.params))
		}
		return ex.params[n.Index], nil
	case *ColumnRef:
		b := ex.refs[n]
		return ex.read(&b, sc)
	case *UnaryExpr:
		v, err := ex.eval(n.E, sc)
		if err != nil {
			return Value{}, err
		}
		if n.Op == "NOT" {
			return not3(v), nil
		}
		// Unary minus.
		if v.IsNull() {
			return Null(), nil
		}
		if v.Type() == IntType {
			i, _ := v.AsInt()
			return Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return Float(-f), nil
		}
		return Value{}, fmt.Errorf("sqldb: cannot negate %s", v.Type())
	case *BinaryExpr:
		return ex.evalBinary(n, sc)
	case *IsNullExpr:
		v, err := ex.eval(n.E, sc)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != n.Not), nil
	case *BetweenExpr:
		v, err := ex.eval(n.E, sc)
		if err != nil {
			return Value{}, err
		}
		lo, err := ex.eval(n.Lo, sc)
		if err != nil {
			return Value{}, err
		}
		hi, err := ex.eval(n.Hi, sc)
		if err != nil {
			return Value{}, err
		}
		ge, err := compare3(v, lo, ">=")
		if err != nil {
			return Value{}, err
		}
		le, err := compare3(v, hi, "<=")
		if err != nil {
			return Value{}, err
		}
		res := and3(ge, le)
		if n.Not {
			res = not3(res)
		}
		return res, nil
	case *LikeExpr:
		v, err := ex.eval(n.E, sc)
		if err != nil {
			return Value{}, err
		}
		pat, err := ex.eval(n.Pattern, sc)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return Null(), nil
		}
		vs, ok1 := v.AsText()
		ps, ok2 := pat.AsText()
		if !ok1 || !ok2 {
			return Value{}, fmt.Errorf("sqldb: LIKE requires text operands")
		}
		m := likeMatch(ps, vs)
		return Bool(m != n.Not), nil
	case *InExpr:
		return ex.evalIn(n, sc)
	case *ExistsExpr:
		res, err := ex.subquery(n.Sub, sc)
		if err != nil {
			return Value{}, err
		}
		return Bool(len(res.Rows) > 0), nil
	case *SubqueryExpr:
		return ex.evalScalarSubquery(n.Sub, sc)
	case *FuncCall:
		return ex.evalFunc(n, sc)
	case *CaseExpr:
		return ex.evalCase(n, sc)
	default:
		return Value{}, fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

// read returns the value b locates, as seen from sc.
func (ex *executor) read(b *binding, sc *scope) (Value, error) {
	for {
		if b.err != nil {
			return Value{}, b.err
		}
		s := sc
		for s.lvl != b.lvl {
			s = s.parent
		}
		if b.item < 0 {
			return s.rows[b.rel][b.col], nil
		}
		if s.busy == nil {
			s.busy = make([]bool, len(b.lvl.sel.Items))
		}
		if !s.busy[b.item] {
			s.busy[b.item] = true
			v, err := ex.eval(b.lvl.sel.Items[b.item].Expr, s)
			s.busy[b.item] = false
			return v, err
		}
		b = b.next
	}
}

func (ex *executor) evalBinary(n *BinaryExpr, sc *scope) (Value, error) {
	switch n.Op {
	case "AND":
		l, err := ex.eval(n.L, sc)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && !isTrue(l) {
			return Bool(false), nil
		}
		r, err := ex.eval(n.R, sc)
		if err != nil {
			return Value{}, err
		}
		return and3(l, r), nil
	case "OR":
		l, err := ex.eval(n.L, sc)
		if err != nil {
			return Value{}, err
		}
		if isTrue(l) {
			return Bool(true), nil
		}
		r, err := ex.eval(n.R, sc)
		if err != nil {
			return Value{}, err
		}
		return or3(l, r), nil
	}
	l, err := ex.eval(n.L, sc)
	if err != nil {
		return Value{}, err
	}
	if n.Quant != "" {
		return ex.evalQuantified(n, l, sc)
	}
	r, err := ex.eval(n.R, sc)
	if err != nil {
		return Value{}, err
	}
	if comparisonOps[n.Op] {
		return compare3(l, r, n.Op)
	}
	return arith(l, r, n.Op)
}

func and3(a, b Value) Value {
	af, at := !a.IsNull() && !isTrue(a), isTrue(a)
	bf, bt := !b.IsNull() && !isTrue(b), isTrue(b)
	switch {
	case af || bf:
		return Bool(false)
	case at && bt:
		return Bool(true)
	default:
		return Null()
	}
}

func or3(a, b Value) Value {
	at := isTrue(a)
	bt := isTrue(b)
	switch {
	case at || bt:
		return Bool(true)
	case a.IsNull() || b.IsNull():
		return Null()
	default:
		return Bool(false)
	}
}

// compare3 applies a comparison with SQL NULL semantics.
func compare3(l, r Value, op string) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	c, err := Compare(l, r)
	if err != nil {
		return Value{}, err
	}
	var b bool
	switch op {
	case "=":
		b = c == 0
	case "!=":
		b = c != 0
	case "<":
		b = c < 0
	case "<=":
		b = c <= 0
	case ">":
		b = c > 0
	case ">=":
		b = c >= 0
	default:
		return Value{}, fmt.Errorf("sqldb: unknown comparison %q", op)
	}
	return Bool(b), nil
}

func arith(l, r Value, op string) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Value{}, fmt.Errorf("sqldb: arithmetic on non-numeric values %s, %s", l.Type(), r.Type())
	}
	bothInt := l.Type() == IntType && r.Type() == IntType
	switch op {
	case "+":
		if bothInt {
			return Int(l.i() + r.i()), nil
		}
		return Float(lf + rf), nil
	case "-":
		if bothInt {
			return Int(l.i() - r.i()), nil
		}
		return Float(lf - rf), nil
	case "*":
		if bothInt {
			return Int(l.i() * r.i()), nil
		}
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null(), nil // MySQL semantics: division by zero yields NULL
		}
		return Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return Null(), nil
		}
		if bothInt {
			return Int(l.i() % r.i()), nil
		}
		return Float(math.Mod(lf, rf)), nil
	default:
		return Value{}, fmt.Errorf("sqldb: unknown operator %q", op)
	}
}

func (ex *executor) evalQuantified(n *BinaryExpr, l Value, sc *scope) (Value, error) {
	res, err := ex.subquery(n.Sub, sc)
	if err != nil {
		return Value{}, err
	}
	if len(res.Columns) != 1 {
		return Value{}, fmt.Errorf("sqldb: quantified subquery must return one column, got %d", len(res.Columns))
	}
	anyNull := false
	if n.Quant == "ALL" {
		for _, row := range res.Rows {
			v, err := compare3(l, row[0], n.Op)
			if err != nil {
				return Value{}, err
			}
			if v.IsNull() {
				anyNull = true
			} else if !isTrue(v) {
				return Bool(false), nil
			}
		}
		if anyNull {
			return Null(), nil
		}
		return Bool(true), nil
	}
	// ANY
	for _, row := range res.Rows {
		v, err := compare3(l, row[0], n.Op)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			anyNull = true
		} else if isTrue(v) {
			return Bool(true), nil
		}
	}
	if anyNull {
		return Null(), nil
	}
	return Bool(false), nil
}

func (ex *executor) evalIn(n *InExpr, sc *scope) (Value, error) {
	v, err := ex.eval(n.E, sc)
	if err != nil {
		return Value{}, err
	}
	var members []Value
	if n.Sub != nil {
		res, err := ex.subquery(n.Sub, sc)
		if err != nil {
			return Value{}, err
		}
		if len(res.Columns) != 1 {
			return Value{}, fmt.Errorf("sqldb: IN subquery must return one column, got %d", len(res.Columns))
		}
		for _, row := range res.Rows {
			members = append(members, row[0])
		}
	} else {
		for _, e := range n.List {
			m, err := ex.eval(e, sc)
			if err != nil {
				return Value{}, err
			}
			members = append(members, m)
		}
	}
	if v.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, m := range members {
		c, err := compare3(v, m, "=")
		if err != nil {
			return Value{}, err
		}
		if c.IsNull() {
			sawNull = true
		} else if isTrue(c) {
			return Bool(!n.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(n.Not), nil
}

func (ex *executor) evalScalarSubquery(sub *SelectStmt, sc *scope) (Value, error) {
	res, err := ex.subquery(sub, sc)
	if err != nil {
		return Value{}, err
	}
	if len(res.Columns) != 1 {
		return Value{}, fmt.Errorf("sqldb: scalar subquery must return one column, got %d", len(res.Columns))
	}
	switch len(res.Rows) {
	case 0:
		return Null(), nil
	case 1:
		return res.Rows[0][0], nil
	default:
		return Value{}, fmt.Errorf("sqldb: scalar subquery returned %d rows", len(res.Rows))
	}
}

func (ex *executor) evalCase(n *CaseExpr, sc *scope) (Value, error) {
	var operand Value
	hasOperand := n.Operand != nil
	if hasOperand {
		v, err := ex.eval(n.Operand, sc)
		if err != nil {
			return Value{}, err
		}
		operand = v
	}
	for _, w := range n.Whens {
		cond, err := ex.eval(w.Cond, sc)
		if err != nil {
			return Value{}, err
		}
		var match bool
		if hasOperand {
			c, err := compare3(operand, cond, "=")
			if err != nil {
				return Value{}, err
			}
			match = isTrue(c)
		} else {
			match = isTrue(cond)
		}
		if match {
			return ex.eval(w.Then, sc)
		}
	}
	if n.Else != nil {
		return ex.eval(n.Else, sc)
	}
	return Null(), nil
}

// aggregateFuncs are function names treated as aggregates.
var aggregateFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (ex *executor) evalFunc(n *FuncCall, sc *scope) (Value, error) {
	if aggregateFuncs[n.Name] {
		// Aggregates are computed by the grouping machinery; here we only
		// look up the precomputed per-group value.
		if a, ok := ex.aggs[n]; ok {
			s := sc
			for s != nil && s.lvl != a.lvl {
				s = s.parent
			}
			if s != nil && s.aggs != nil {
				return s.aggs[a.idx], nil
			}
		}
		return Value{}, fmt.Errorf("sqldb: aggregate %s used outside a grouped query", n.Name)
	}
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := ex.eval(a, sc)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return callScalar(n.Name, args)
}

func callScalar(name string, args []Value) (Value, error) {
	numArg := func(i int) (float64, error) {
		f, ok := args[i].AsFloat()
		if !ok {
			return 0, fmt.Errorf("sqldb: %s: argument %d is not numeric", name, i+1)
		}
		return f, nil
	}
	switch name {
	case "ABS":
		if err := wantArgs(name, args, 1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if args[0].Type() == IntType {
			i, _ := args[0].AsInt()
			if i < 0 {
				i = -i
			}
			return Int(i), nil
		}
		f, err := numArg(0)
		if err != nil {
			return Value{}, err
		}
		return Float(math.Abs(f)), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Value{}, fmt.Errorf("sqldb: ROUND takes 1 or 2 arguments, got %d", len(args))
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, err := numArg(0)
		if err != nil {
			return Value{}, err
		}
		digits := 0.0
		if len(args) == 2 {
			if args[1].IsNull() {
				return Null(), nil
			}
			if digits, err = numArg(1); err != nil {
				return Value{}, err
			}
		}
		scale := math.Pow(10, math.Trunc(digits))
		return Float(math.Round(f*scale) / scale), nil
	case "FLOOR", "CEIL", "CEILING", "SQRT":
		if err := wantArgs(name, args, 1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, err := numArg(0)
		if err != nil {
			return Value{}, err
		}
		switch name {
		case "FLOOR":
			return Float(math.Floor(f)), nil
		case "SQRT":
			if f < 0 {
				return Null(), nil
			}
			return Float(math.Sqrt(f)), nil
		default:
			return Float(math.Ceil(f)), nil
		}
	case "POWER", "POW":
		if err := wantArgs(name, args, 2); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		a, err := numArg(0)
		if err != nil {
			return Value{}, err
		}
		b, err := numArg(1)
		if err != nil {
			return Value{}, err
		}
		return Float(math.Pow(a, b)), nil
	case "LENGTH":
		if err := wantArgs(name, args, 1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		s, ok := args[0].AsText()
		if !ok {
			return Value{}, fmt.Errorf("sqldb: LENGTH requires text")
		}
		return Int(int64(len(s))), nil
	case "UPPER", "LOWER":
		if err := wantArgs(name, args, 1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		s, ok := args[0].AsText()
		if !ok {
			return Value{}, fmt.Errorf("sqldb: %s requires text", name)
		}
		if name == "UPPER" {
			return Text(strings.ToUpper(s)), nil
		}
		return Text(strings.ToLower(s)), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "IFNULL":
		if err := wantArgs(name, args, 2); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "LEAST", "GREATEST":
		if len(args) == 0 {
			return Value{}, fmt.Errorf("sqldb: %s needs at least one argument", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return Null(), nil
			}
			c, err := Compare(a, best)
			if err != nil {
				return Value{}, err
			}
			if (name == "LEAST" && c < 0) || (name == "GREATEST" && c > 0) {
				best = a
			}
		}
		return best, nil
	default:
		return Value{}, fmt.Errorf("sqldb: unknown function %s", name)
	}
}

func wantArgs(name string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("sqldb: %s takes %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte),
// case-sensitive, without regexp.
func likeMatch(pattern, s string) bool {
	// Dynamic programming over pattern/state positions, iterative two-pointer
	// with backtracking on the last %.
	pi, si := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
