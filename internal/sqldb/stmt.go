package sqldb

import (
	"context"
	"errors"
	"fmt"
)

// errQueryNotSelect is returned when Query runs a non-SELECT statement.
var errQueryNotSelect = errors.New("sqldb: Query requires a SELECT statement")

// Stmt is a compiled SQL statement: the parse happens once, at Prepare time,
// and every execution reuses the AST. A Stmt is bound to no particular
// database — the same compiled statement may be executed against any number
// of DBs (the canned questions are compiled once per process and run against
// every applicant session's database). A Stmt is immutable after Prepare and
// safe for concurrent use.
type Stmt struct {
	sql       string
	stmt      Statement
	numParams int
	adhoc     bool // parsed by PrepareAdHoc for one execution
}

// Prepare compiles a single SQL statement. `?` placeholders become
// positional parameters bound by the args of Query/Exec.
func Prepare(sql string) (*Stmt, error) {
	stmt, nparams, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{sql: sql, stmt: stmt, numParams: nparams}, nil
}

// PrepareAdHoc is Prepare for a statement parsed for one execution, such
// as a request's own SQL text. Its AST never runs again, so its plans are
// cached on the executor and die with it instead of pinning the AST in the
// DB's plan cache.
func PrepareAdHoc(sql string) (*Stmt, error) {
	st, err := Prepare(sql)
	if err == nil {
		st.adhoc = true
	}
	return st, err
}

// MustPrepare is Prepare that panics on error, for statements fixed at
// compile time.
func MustPrepare(sql string) *Stmt {
	st, err := Prepare(sql)
	if err != nil {
		panic(err)
	}
	return st
}

// Prepare compiles a statement. The result is not bound to the receiver:
// like the package-level Prepare, the compiled statement runs against any
// database.
func (db *DB) Prepare(sql string) (*Stmt, error) { return Prepare(sql) }

// SQL returns the statement's source text.
func (st *Stmt) SQL() string { return st.sql }

// IsSelect reports whether the statement is read-only and executable via
// Query: a SELECT or an EXPLAIN SELECT (anything else goes through Exec).
func (st *Stmt) IsSelect() bool {
	switch st.stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		return true
	}
	return false
}

// NumParams returns the number of `?` placeholders.
func (st *Stmt) NumParams() int { return st.numParams }

func (st *Stmt) checkArgs(args []Value) error {
	if len(args) != st.numParams {
		return fmt.Errorf("sqldb: statement has %d parameter(s), got %d argument(s)", st.numParams, len(args))
	}
	return nil
}

// Query executes a prepared SELECT (or EXPLAIN SELECT) against db under its
// read lock.
func (st *Stmt) Query(db *DB, args ...Value) (*Result, error) {
	return st.queryTraced(context.Background(), db, 0, args)
}

// QueryCapped is Query with limit pushdown: the top-level statement stops
// producing rows once maxRows have been emitted, so a SELECT over a huge
// table costs the cap, not the table. Simple single-table SELECTs stream and
// stop early (on paged storage, rows past the cap never even fault in);
// shapes that must see every row to be correct (aggregation, DISTINCT,
// ORDER BY, joins) run in full and are truncated at the cap. Subqueries are
// never capped — that would change results, not just bound their size.
// maxRows <= 0 means uncapped; EXPLAIN output is never capped.
func (st *Stmt) QueryCapped(db *DB, maxRows int, args ...Value) (*Result, error) {
	return st.queryTraced(context.Background(), db, maxRows, args)
}

// Exec executes a prepared non-SELECT statement against db under its write
// lock, returning the number of rows affected (0 for DDL).
func (st *Stmt) Exec(db *DB, args ...Value) (int, error) {
	if err := st.checkArgs(args); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	n, err := db.execStatement(st.stmt, &executor{db: db, params: args, adhoc: st.adhoc})
	// Log whenever state may have changed: a clean success (DDL reports
	// n=0, err=nil) or a partial INSERT (n>0 with an error; replaying the
	// deterministic statement reproduces the identical partial effect).
	// SELECT-through-Exec and pure failures mutate nothing and are skipped,
	// as is ANALYZE: it only refreshes statistics, which ride the snapshot
	// (Dump.Stats) rather than the WAL.
	_, isAnalyze := st.stmt.(*AnalyzeStmt)
	if db.logger != nil && !isAnalyze && (err == nil || n > 0) {
		if lerr := db.logger.LogExec(st.sql, args); lerr != nil {
			lerr = fmt.Errorf("sqldb: statement applied but not logged: %w", lerr)
			if err == nil {
				err = lerr
			} else {
				err = fmt.Errorf("%w (additionally: %v)", err, lerr)
			}
		}
	}
	return n, err
}
