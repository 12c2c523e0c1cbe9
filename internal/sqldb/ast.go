package sqldb

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name        string
	Cols        []ColumnDef
	IfNotExists bool
}

// ColumnDef declares one column.
type ColumnDef struct {
	Name string
	Type Type
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...), (...) or
// INSERT INTO name [(cols)] SELECT ....
type InsertStmt struct {
	Table  string
	Cols   []string // nil means all columns in table order
	Rows   [][]Expr
	Select *SelectStmt // non-nil for INSERT ... SELECT
}

// DeleteStmt is DELETE FROM name [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE name SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// CreateIndexStmt is CREATE INDEX [IF NOT EXISTS] name ON table (col, ...).
type CreateIndexStmt struct {
	Name        string
	Table       string
	Columns     []string // most significant key part first
	IfNotExists bool
}

// DropIndexStmt is DROP INDEX [IF EXISTS] name.
type DropIndexStmt struct {
	Name     string
	IfExists bool
}

// ExplainStmt is EXPLAIN SELECT ...: it executes the SELECT against the
// current database state, discards the rows, and returns the plan the
// executor actually chose as one text line per row.
type ExplainStmt struct {
	Sel *SelectStmt
}

// SelectStmt is a full SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // joined left-to-right; Join conditions attach to the right table
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

// SelectItem is one projection item.
type SelectItem struct {
	Star      bool   // SELECT * or tbl.*
	StarTable string // non-empty for tbl.*
	Expr      Expr
	Alias     string
}

// TableRef is a table (or subquery) in FROM, optionally join-conditioned.
type TableRef struct {
	Name     string
	Subquery *SelectStmt // non-nil for (SELECT ...) AS alias
	Alias    string
	JoinCond Expr // nil for the first table or comma-joined tables
	LeftJoin bool // LEFT [OUTER] JOIN: unmatched left tuples pad with NULLs
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DropTableStmt) stmt()   {}
func (*CreateIndexStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}

// Expr is any SQL expression node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct {
	Val Value
}

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table  string // empty if unqualified
	Column string
}

// ParamExpr is a positional `?` placeholder, bound at execution time by the
// arguments of DB.Query, DB.Exec, Stmt.Query or Stmt.Exec. Index counts
// placeholders left to right from 0.
type ParamExpr struct {
	Index int
}

// BinaryExpr is a binary operation. Op is one of
// = != < <= > >= + - * / % AND OR.
type BinaryExpr struct {
	Op    string
	L, R  Expr
	Quant string      // "", "ALL", "ANY" for quantified comparisons
	Sub   *SelectStmt // subquery for quantified comparisons
}

// UnaryExpr is NOT expr or - expr.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// InExpr is expr [NOT] IN (list | subquery).
type InExpr struct {
	E    Expr
	Not  bool
	List []Expr
	Sub  *SelectStmt
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Expr
	Not    bool
	Lo, Hi Expr
}

// LikeExpr is expr [NOT] LIKE pattern.
type LikeExpr struct {
	E       Expr
	Not     bool
	Pattern Expr
}

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Sub *SelectStmt
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Sub *SelectStmt
}

// CaseExpr is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*Literal) expr()      {}
func (*ColumnRef) expr()    {}
func (*ParamExpr) expr()    {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*FuncCall) expr()     {}
func (*IsNullExpr) expr()   {}
func (*InExpr) expr()       {}
func (*BetweenExpr) expr()  {}
func (*LikeExpr) expr()     {}
func (*ExistsExpr) expr()   {}
func (*SubqueryExpr) expr() {}
func (*CaseExpr) expr()     {}
