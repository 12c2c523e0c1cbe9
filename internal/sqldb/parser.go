package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	stmt, _, err := parseSQL(input)
	return stmt, err
}

// parseSQL parses one statement and reports how many `?` placeholders it
// contains.
func parseSQL(input string) (Statement, int, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks, input: input}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, 0, p.errorf("unexpected %q after statement", p.cur().text)
	}
	return stmt, p.params, nil
}

type parser struct {
	toks   []token
	pos    int
	input  string
	params int // number of `?` placeholders seen so far
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errorf("expected %s, got %q", want, p.cur().text)
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tkKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tkKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tkKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tkKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tkKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tkKeyword, "DROP"):
		return p.parseDrop()
	case p.at(tkIdent, "") && strings.EqualFold(p.cur().text, "EXPLAIN"):
		// EXPLAIN is contextual (columns named "explain" keep working): a
		// statement can never start with a bare identifier otherwise.
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Sel: sel}, nil
	default:
		return nil, p.errorf("expected a statement, got %q", p.cur().text)
	}
}

func (p *parser) parseIdent() (string, error) {
	if p.at(tkIdent, "") {
		return p.next().text, nil
	}
	return "", p.errorf("expected identifier, got %q", p.cur().text)
}

// acceptIndexWord consumes the contextual keyword INDEX, which lexes as a
// plain identifier so that columns named "index" keep working.
func (p *parser) acceptIndexWord() bool {
	if p.at(tkIdent, "") && strings.EqualFold(p.cur().text, "INDEX") {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if p.acceptIndexWord() {
		return p.parseCreateIndex()
	}
	if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
		return nil, err
	}
	ifNotExists := false
	if p.accept(tkKeyword, "IF") {
		if _, err := p.expect(tkKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		ifNotExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseColumnType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: colName, Type: typ})
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Cols: cols, IfNotExists: ifNotExists}, nil
}

// parseCreateIndex parses the tail of CREATE INDEX [IF NOT EXISTS] name ON
// table (col, ...); composite indexes list the most significant key part
// first.
func (p *parser) parseCreateIndex() (Statement, error) {
	ifNotExists := false
	if p.accept(tkKeyword, "IF") {
		if _, err := p.expect(tkKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		ifNotExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, IfNotExists: ifNotExists}, nil
}

func (p *parser) parseColumnType() (Type, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return 0, p.errorf("expected column type, got %q", t.text)
	}
	p.next()
	switch t.text {
	case "INT", "INTEGER":
		return IntType, nil
	case "FLOAT", "DOUBLE", "REAL":
		return FloatType, nil
	case "TEXT":
		return TextType, nil
	case "VARCHAR":
		// Optional length, ignored.
		if p.accept(tkSymbol, "(") {
			if _, err := p.expect(tkNumber, ""); err != nil {
				return 0, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return 0, err
			}
		}
		return TextType, nil
	case "BOOL", "BOOLEAN":
		return BoolType, nil
	default:
		return 0, p.errorf("unknown column type %q", t.text)
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.accept(tkSymbol, "(") {
		for {
			c, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(tkKeyword, "SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &InsertStmt{Table: name, Cols: cols, Select: sub}, nil
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	return &InsertStmt{Table: name, Cols: cols, Rows: rows}, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.accept(tkKeyword, "WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return &DeleteStmt{Table: name, Where: where}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	var cols []string
	var exprs []Expr
	for {
		c, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		exprs = append(exprs, e)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	var where Expr
	if p.accept(tkKeyword, "WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return &UpdateStmt{Table: name, Cols: cols, Exprs: exprs, Where: where}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if p.acceptIndexWord() {
		ifExists := false
		if p.accept(tkKeyword, "IF") {
			if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name, IfExists: ifExists}, nil
	}
	if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.accept(tkKeyword, "IF") {
		if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	sel.Distinct = p.accept(tkKeyword, "DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}

	if p.accept(tkKeyword, "FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		for {
			switch {
			case p.accept(tkSymbol, ","):
				ref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, ref)
			case p.at(tkKeyword, "INNER") || p.at(tkKeyword, "JOIN") || p.at(tkKeyword, "LEFT"):
				left := p.accept(tkKeyword, "LEFT")
				if left {
					p.accept(tkKeyword, "OUTER")
				} else {
					p.accept(tkKeyword, "INNER")
				}
				if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
					return nil, err
				}
				ref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tkKeyword, "ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ref.JoinCond = cond
				ref.LeftJoin = left
				sel.From = append(sel.From, ref)
			default:
				goto fromDone
			}
		}
	}
fromDone:

	if p.accept(tkKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tkKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = &n
		if p.accept(tkKeyword, "OFFSET") {
			m, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			sel.Offset = &m
		}
	}
	return sel, nil
}

func (p *parser) parseInt() (int64, error) {
	t, err := p.expect(tkNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errorf("expected integer, got %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tkSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// tbl.* needs two tokens of lookahead.
	if p.at(tkIdent, "") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tkSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tkSymbol && p.toks[p.pos+2].text == "*" {
		tbl := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tkKeyword, "AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.at(tkIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.accept(tkSymbol, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return ref, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return ref, err
		}
		ref.Subquery = sub
		p.accept(tkKeyword, "AS")
		alias, err := p.parseIdent()
		if err != nil {
			return ref, p.errorf("subquery in FROM requires an alias")
		}
		ref.Alias = alias
		return ref, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return ref, err
	}
	ref.Name = name
	if p.accept(tkKeyword, "AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return ref, err
		}
		ref.Alias = alias
	} else if p.at(tkIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, loosest to tightest:
// expr := and (OR and)*
// and  := not (AND not)*
// not  := NOT not | predicate
// predicate := additive [comparison | IS NULL | IN | BETWEEN | LIKE]
// additive := multiplicative (("+"|"-") multiplicative)*
// multiplicative := unary (("*"|"/"|"%") unary)*
// unary := "-" unary | primary

func (p *parser) parseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tkKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

var comparisonOps = map[string]bool{"=": true, "!=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	switch {
	case t.kind == tkSymbol && comparisonOps[t.text]:
		p.next()
		op := t.text
		if op == "<>" {
			op = "!="
		}
		// Quantified comparison: cmp ALL|ANY|SOME (subquery).
		if p.at(tkKeyword, "ALL") || p.at(tkKeyword, "ANY") || p.at(tkKeyword, "SOME") {
			quant := p.next().text
			if quant == "SOME" {
				quant = "ANY"
			}
			if _, err := p.expect(tkSymbol, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, Quant: quant, Sub: sub}, nil
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	case t.kind == tkKeyword && t.text == "IS":
		p.next()
		not := p.accept(tkKeyword, "NOT")
		if _, err := p.expect(tkKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	case t.kind == tkKeyword && (t.text == "IN" || t.text == "BETWEEN" || t.text == "LIKE" || t.text == "NOT"):
		not := false
		if t.text == "NOT" {
			// Only consume NOT when followed by IN/BETWEEN/LIKE.
			nxt := p.toks[p.pos+1]
			if nxt.kind != tkKeyword || (nxt.text != "IN" && nxt.text != "BETWEEN" && nxt.text != "LIKE") {
				return l, nil
			}
			p.next()
			not = true
		}
		switch {
		case p.accept(tkKeyword, "IN"):
			return p.parseInRest(l, not)
		case p.accept(tkKeyword, "BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{E: l, Not: not, Lo: lo, Hi: hi}, nil
		case p.accept(tkKeyword, "LIKE"):
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &LikeExpr{E: l, Not: not, Pattern: pat}, nil
		default:
			return nil, p.errorf("expected IN, BETWEEN or LIKE after NOT")
		}
	default:
		return l, nil
	}
}

func (p *parser) parseInRest(l Expr, not bool) (Expr, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	if p.at(tkKeyword, "SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, Not: not, Sub: sub}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &InExpr{E: l, Not: not, List: list}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tkSymbol, "+") || p.at(tkSymbol, "-") {
		op := p.next().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tkSymbol, "*") || p.at(tkSymbol, "/") || p.at(tkSymbol, "%") {
		op := p.next().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		return &Literal{Val: Int(i)}, nil
	case t.kind == tkString:
		p.next()
		return &Literal{Val: Text(t.text)}, nil
	case t.kind == tkSymbol && t.text == "?":
		p.next()
		e := &ParamExpr{Index: p.params}
		p.params++
		return e, nil
	case t.kind == tkKeyword && t.text == "NULL":
		p.next()
		return &Literal{Val: Null()}, nil
	case t.kind == tkKeyword && t.text == "TRUE":
		p.next()
		return &Literal{Val: Bool(true)}, nil
	case t.kind == tkKeyword && t.text == "FALSE":
		p.next()
		return &Literal{Val: Bool(false)}, nil
	case t.kind == tkKeyword && t.text == "EXISTS":
		p.next()
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub}, nil
	case t.kind == tkKeyword && t.text == "CASE":
		return p.parseCase()
	case t.kind == tkSymbol && t.text == "(":
		p.next()
		if p.at(tkKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Sub: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkIdent:
		p.next()
		// Function call?
		if p.at(tkSymbol, "(") {
			return p.parseFuncCall(t.text)
		}
		// Qualified column?
		if p.accept(tkSymbol, ".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	default:
		return nil, p.errorf("unexpected %q in expression", t.text)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	p.next() // (
	fc := &FuncCall{Name: strings.ToUpper(name)}
	if p.accept(tkSymbol, "*") {
		fc.Star = true
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	fc.Distinct = p.accept(tkKeyword, "DISTINCT")
	if !p.at(tkSymbol, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	if !p.at(tkKeyword, "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.accept(tkKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(tkKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if _, err := p.expect(tkKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}
