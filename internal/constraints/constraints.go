// Package constraints implements the paper's Definition II.2: a Constraints
// Function C mapping an input x to the set C(x) of valid modifications.
// Constraints are written in a small expression language of linear (and, for
// convenience, arbitrary arithmetic) inequalities over the feature
// attributes, combined with AND / OR / NOT, plus the three special
// properties the paper exposes:
//
//	diff       — l2 distance of the candidate from the (temporal) input
//	gap        — l0 distance (number of modified attributes)
//	confidence — the model score M_t(x') of the candidate
//
// and two extras that make realistic policies expressible:
//
//	time       — the time point under consideration
//	old(attr)  — the attribute's value in the unmodified temporal input
//
// Examples:
//
//	income <= old(income) * 1.3
//	debt >= 500 AND (gap <= 2 OR confidence > 0.9)
//	amount = old(amount)            -- freeze a feature
//	time >= 2 OR income <= 60000    -- time-dependent policy
package constraints

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"justintime/internal/feature"
)

// Context carries everything needed to evaluate a constraint for one
// candidate at one time point.
type Context struct {
	// Schema resolves attribute names.
	Schema *feature.Schema
	// Original is the unmodified temporal input x_t.
	Original []float64
	// Candidate is the proposed modification x'.
	Candidate []float64
	// Time is the time point t.
	Time int
	// Confidence is the model score M_t(x') of the candidate.
	Confidence float64
}

// Diff returns the l2 distance between candidate and original.
func (c *Context) Diff() float64 { return feature.Diff(c.Candidate, c.Original) }

// Gap returns the l0 distance between candidate and original.
func (c *Context) Gap() int { return feature.Gap(c.Candidate, c.Original) }

// Constraint is one parsed constraint expression.
type Constraint struct {
	root node
	src  string
}

// Parse compiles a constraint expression.
func Parse(src string) (*Constraint, error) {
	p := &cparser{src: src}
	p.lex()
	if p.err != nil {
		return nil, p.err
	}
	root := p.parseOr()
	if p.err != nil {
		return nil, p.err
	}
	if p.peek().kind != ctEOF {
		return nil, fmt.Errorf("constraints: unexpected %q after expression", p.peek().text)
	}
	return &Constraint{root: root, src: src}, nil
}

// MustParse is Parse that panics on error, for fixture constraints.
func MustParse(src string) *Constraint {
	c, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}

// String returns the original source text.
func (c *Constraint) String() string { return c.src }

// Eval evaluates the constraint; the result must be boolean.
func (c *Constraint) Eval(ctx *Context) (bool, error) {
	v, err := c.root.eval(ctx)
	if err != nil {
		return false, err
	}
	if !v.isBool {
		return false, fmt.Errorf("constraints: %q does not evaluate to a condition", c.src)
	}
	return v.b, nil
}

// --- values ---

type cval struct {
	isBool bool
	b      bool
	f      float64
}

func numVal(f float64) cval { return cval{f: f} }
func boolVal(b bool) cval   { return cval{isBool: true, b: b} }
func (v cval) number() (float64, bool) {
	if v.isBool {
		return 0, false
	}
	return v.f, true
}

// --- AST ---

type node interface {
	eval(ctx *Context) (cval, error)
}

type numNode float64

func (n numNode) eval(*Context) (cval, error) { return numVal(float64(n)), nil }

type refNode struct {
	name string
	old  bool // old(name)
}

func (n refNode) eval(ctx *Context) (cval, error) {
	if i, ok := ctx.Schema.Index(n.name); ok {
		if n.old {
			return numVal(ctx.Original[i]), nil
		}
		return numVal(ctx.Candidate[i]), nil
	}
	if n.old {
		return cval{}, fmt.Errorf("constraints: old(%s): unknown attribute", n.name)
	}
	switch n.name {
	case "diff":
		return numVal(ctx.Diff()), nil
	case "gap":
		return numVal(float64(ctx.Gap())), nil
	case "confidence":
		return numVal(ctx.Confidence), nil
	case "time":
		return numVal(float64(ctx.Time)), nil
	default:
		return cval{}, fmt.Errorf("constraints: unknown attribute %q", n.name)
	}
}

// indexNode is a refNode that Bind resolved against a schema: it reads
// the attribute's vector index directly instead of looking its name up.
type indexNode struct {
	i   int
	old bool
}

func (n indexNode) eval(ctx *Context) (cval, error) {
	if n.old {
		return numVal(ctx.Original[n.i]), nil
	}
	return numVal(ctx.Candidate[n.i]), nil
}

type arithNode struct {
	op   byte // + - * /
	l, r node
}

func (n arithNode) eval(ctx *Context) (cval, error) {
	lv, err := n.l.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	rv, err := n.r.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	lf, lok := lv.number()
	rf, rok := rv.number()
	if !lok || !rok {
		return cval{}, fmt.Errorf("constraints: arithmetic on a condition")
	}
	switch n.op {
	case '+':
		return numVal(lf + rf), nil
	case '-':
		return numVal(lf - rf), nil
	case '*':
		return numVal(lf * rf), nil
	case '/':
		if rf == 0 {
			return cval{}, fmt.Errorf("constraints: division by zero")
		}
		return numVal(lf / rf), nil
	default:
		return cval{}, fmt.Errorf("constraints: bad arithmetic op %q", n.op)
	}
}

type negNode struct{ e node }

func (n negNode) eval(ctx *Context) (cval, error) {
	v, err := n.e.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	f, ok := v.number()
	if !ok {
		return cval{}, fmt.Errorf("constraints: cannot negate a condition")
	}
	return numVal(-f), nil
}

type cmpNode struct {
	op   string // = != < <= > >=
	l, r node
}

func (n cmpNode) eval(ctx *Context) (cval, error) {
	lv, err := n.l.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	rv, err := n.r.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	lf, lok := lv.number()
	rf, rok := rv.number()
	if !lok || !rok {
		return cval{}, fmt.Errorf("constraints: comparison needs numeric operands")
	}
	var b bool
	switch n.op {
	case "=":
		b = math.Abs(lf-rf) <= feature.Epsilon
	case "!=":
		b = math.Abs(lf-rf) > feature.Epsilon
	case "<":
		b = lf < rf
	case "<=":
		b = lf <= rf+feature.Epsilon
	case ">":
		b = lf > rf
	case ">=":
		b = lf >= rf-feature.Epsilon
	default:
		return cval{}, fmt.Errorf("constraints: bad comparison %q", n.op)
	}
	return boolVal(b), nil
}

type logicNode struct {
	and  bool
	l, r node
}

func (n logicNode) eval(ctx *Context) (cval, error) {
	lv, err := n.l.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	if !lv.isBool {
		return cval{}, fmt.Errorf("constraints: AND/OR needs conditions")
	}
	// Short circuit.
	if n.and && !lv.b {
		return boolVal(false), nil
	}
	if !n.and && lv.b {
		return boolVal(true), nil
	}
	rv, err := n.r.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	if !rv.isBool {
		return cval{}, fmt.Errorf("constraints: AND/OR needs conditions")
	}
	return boolVal(rv.b), nil
}

type notNode struct{ e node }

func (n notNode) eval(ctx *Context) (cval, error) {
	v, err := n.e.eval(ctx)
	if err != nil {
		return cval{}, err
	}
	if !v.isBool {
		return cval{}, fmt.Errorf("constraints: NOT needs a condition")
	}
	return boolVal(!v.b), nil
}

type funcNode struct {
	name string
	args []node
}

func (n funcNode) eval(ctx *Context) (cval, error) {
	vals := make([]float64, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(ctx)
		if err != nil {
			return cval{}, err
		}
		f, ok := v.number()
		if !ok {
			return cval{}, fmt.Errorf("constraints: %s argument must be numeric", n.name)
		}
		vals[i] = f
	}
	switch n.name {
	case "abs":
		return numVal(math.Abs(vals[0])), nil
	case "min":
		return numVal(math.Min(vals[0], vals[1])), nil
	case "max":
		return numVal(math.Max(vals[0], vals[1])), nil
	default:
		return cval{}, fmt.Errorf("constraints: unknown function %q", n.name)
	}
}

// --- lexer / parser ---

type ctKind int

const (
	ctEOF ctKind = iota
	ctNum
	ctIdent
	ctOp // symbols and keywords AND OR NOT
)

type ctok struct {
	kind ctKind
	text string
}

type cparser struct {
	src  string
	toks []ctok
	pos  int
	err  error
}

func (p *cparser) lex() {
	s := p.src
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < len(s) && s[i+1] == '-':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case unicode.IsDigit(c) || c == '.':
			start := i
			for i < len(s) && (unicode.IsDigit(rune(s[i])) || s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
				((s[i] == '+' || s[i] == '-') && i > start && (s[i-1] == 'e' || s[i-1] == 'E'))) {
				i++
			}
			p.toks = append(p.toks, ctok{ctNum, s[start:i]})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(s) && (unicode.IsLetter(rune(s[i])) || unicode.IsDigit(rune(s[i])) || s[i] == '_') {
				i++
			}
			word := s[start:i]
			switch strings.ToUpper(word) {
			case "AND", "OR", "NOT":
				p.toks = append(p.toks, ctok{ctOp, strings.ToUpper(word)})
			default:
				p.toks = append(p.toks, ctok{ctIdent, strings.ToLower(word)})
			}
		case strings.ContainsRune("()+-*/,", c):
			p.toks = append(p.toks, ctok{ctOp, string(c)})
			i++
		case c == '=':
			p.toks = append(p.toks, ctok{ctOp, "="})
			i++
		case c == '!' && i+1 < len(s) && s[i+1] == '=':
			p.toks = append(p.toks, ctok{ctOp, "!="})
			i += 2
		case c == '<' || c == '>':
			op := string(c)
			i++
			if i < len(s) && s[i] == '=' {
				op += "="
				i++
			} else if c == '<' && i < len(s) && s[i] == '>' {
				op = "!="
				i++
			}
			p.toks = append(p.toks, ctok{ctOp, op})
		default:
			p.err = fmt.Errorf("constraints: unexpected character %q", c)
			return
		}
	}
	p.toks = append(p.toks, ctok{ctEOF, ""})
}

func (p *cparser) peek() ctok { return p.toks[p.pos] }

func (p *cparser) acceptOp(text string) bool {
	if p.err == nil && p.toks[p.pos].kind == ctOp && p.toks[p.pos].text == text {
		p.pos++
		return true
	}
	return false
}

func (p *cparser) fail(format string, args ...interface{}) node {
	if p.err == nil {
		p.err = fmt.Errorf("constraints: "+format, args...)
	}
	return numNode(0)
}

func (p *cparser) parseOr() node {
	l := p.parseAnd()
	for p.acceptOp("OR") {
		r := p.parseAnd()
		l = logicNode{and: false, l: l, r: r}
	}
	return l
}

func (p *cparser) parseAnd() node {
	l := p.parseNot()
	for p.acceptOp("AND") {
		r := p.parseNot()
		l = logicNode{and: true, l: l, r: r}
	}
	return l
}

func (p *cparser) parseNot() node {
	if p.acceptOp("NOT") {
		return notNode{e: p.parseNot()}
	}
	return p.parseCmp()
}

var cmpOps = []string{"<=", ">=", "!=", "=", "<", ">"}

func (p *cparser) parseCmp() node {
	l := p.parseSum()
	for _, op := range cmpOps {
		if p.acceptOp(op) {
			r := p.parseSum()
			return cmpNode{op: op, l: l, r: r}
		}
	}
	return l
}

func (p *cparser) parseSum() node {
	l := p.parseTerm()
	for {
		switch {
		case p.acceptOp("+"):
			l = arithNode{op: '+', l: l, r: p.parseTerm()}
		case p.acceptOp("-"):
			l = arithNode{op: '-', l: l, r: p.parseTerm()}
		default:
			return l
		}
	}
}

func (p *cparser) parseTerm() node {
	l := p.parseFactor()
	for {
		switch {
		case p.acceptOp("*"):
			l = arithNode{op: '*', l: l, r: p.parseFactor()}
		case p.acceptOp("/"):
			l = arithNode{op: '/', l: l, r: p.parseFactor()}
		default:
			return l
		}
	}
}

func (p *cparser) parseFactor() node {
	if p.err != nil {
		return numNode(0)
	}
	t := p.peek()
	switch {
	case p.acceptOp("-"):
		return negNode{e: p.parseFactor()}
	case p.acceptOp("("):
		e := p.parseOr()
		if !p.acceptOp(")") {
			return p.fail("missing closing parenthesis")
		}
		return e
	case t.kind == ctNum:
		p.pos++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return p.fail("bad number %q", t.text)
		}
		return numNode(f)
	case t.kind == ctIdent:
		p.pos++
		name := t.text
		if p.acceptOp("(") {
			if name == "old" {
				arg := p.peek()
				if arg.kind != ctIdent {
					return p.fail("old() takes an attribute name")
				}
				p.pos++
				if !p.acceptOp(")") {
					return p.fail("missing ) after old(%s", arg.text)
				}
				return refNode{name: arg.text, old: true}
			}
			var args []node
			if !p.acceptOp(")") {
				for {
					args = append(args, p.parseSum())
					if p.acceptOp(")") {
						break
					}
					if !p.acceptOp(",") {
						return p.fail("expected , or ) in %s(...)", name)
					}
				}
			}
			want := map[string]int{"abs": 1, "min": 2, "max": 2}
			n, known := want[name]
			if !known {
				return p.fail("unknown function %q", name)
			}
			if len(args) != n {
				return p.fail("%s takes %d argument(s), got %d", name, n, len(args))
			}
			return funcNode{name: name, args: args}
		}
		return refNode{name: name}
	default:
		return p.fail("unexpected %q", t.text)
	}
}
