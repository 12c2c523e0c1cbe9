package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column is one column of a stored table.
type Column struct {
	Name string
	Type Type
}

// Table is a stored table, optionally carrying secondary indexes. Row
// storage lives behind a RowStore: a plain heap slice by default, or slotted
// pages behind a shared buffer pool after DB.PageTable.
type Table struct {
	Name   string
	Cols   []Column
	colIdx map[string]int
	store  RowStore

	// version counts row mutations (insert/delete/update); secondary
	// indexes compare it against the version they were built at and
	// rebuild lazily when stale.
	version uint64
	indexes []*tableIndex
	// idxCols caches the column positions covered by any index. It is
	// rebuilt under the write lock on index DDL and read immutably by the
	// planner on every scan (correlated subqueries plan once per outer
	// row, so recomputing it there would be a hot-path allocation).
	idxCols map[int]bool

	// statRows/statDrift track stats drift (see DB.noteDriftLocked):
	// statRows is the row count when drift last reset, statDrift the
	// mutated rows since. Both are touched only under the DB write lock.
	statRows  int
	statDrift int
	// epochRef points at the owning DB's stats epoch so a lazy index build
	// (which runs under the read lock) can bump it when fresh statistics
	// appear; set when the table is registered.
	epochRef *atomic.Uint64
}

func newTable(name string, cols []Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %q needs at least one column", name)
	}
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("sqldb: table %q has an unnamed column", name)
		}
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("sqldb: table %q has duplicate column %q", name, c.Name)
		}
		idx[c.Name] = i
	}
	return &Table{Name: name, Cols: cols, colIdx: idx, store: &sliceStore{}, version: 1}, nil
}

// indexOn returns the table's single-column index over exactly column col,
// if any (the shape index nested-loop joins probe).
func (t *Table) indexOn(col int) *tableIndex {
	for _, ix := range t.indexes {
		if len(ix.cols) == 1 && ix.cols[0] == col {
			return ix
		}
	}
	return nil
}

// indexedCols returns the cached set of column positions covered by any
// index (at any position within a composite key); only sargs on these
// columns can ever contribute to an access path.
func (t *Table) indexedCols() map[int]bool { return t.idxCols }

// rebuildIdxCols refreshes the cache; call under the DB write lock after
// any index DDL.
func (t *Table) rebuildIdxCols() {
	out := make(map[int]bool)
	for _, ix := range t.indexes {
		for _, ci := range ix.cols {
			out[ci] = true
		}
	}
	t.idxCols = out
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int { return t.store.Len() }

// columnNames returns the column names in order.
func (t *Table) columnNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// DB is an in-memory SQL database.
//
// Concurrency contract: a DB is safe for concurrent use by many goroutines.
// Query and Stmt.Query acquire a shared (read) lock, so any number of
// readers execute concurrently against one database — this is how many
// requests query a single applicant session at once. Exec, Stmt.Exec,
// InsertRows, CreateTable and CreateIndex acquire the exclusive (write)
// lock and serialize against all readers. Secondary indexes rebuild lazily
// on first use after a mutation; the rebuild is internally synchronized and
// safe under concurrent readers. Prepared statements (Prepare) are
// immutable after compilation and may be shared freely across goroutines
// and databases. The knob fields (DisableHashJoin, DisableIndexScan) are
// not synchronized: set them before the database is shared.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// logger, when non-nil, receives every applied mutation under the write
	// lock (see MutationLogger). Attach/detach via SetLogger.
	logger MutationLogger

	// DisableHashJoin forces nested-loop joins; used by the join ablation
	// benchmark. Set before issuing queries.
	DisableHashJoin bool

	// DisableIndexScan forces full scans even where a secondary index
	// could answer a WHERE conjunct; used by the index ablation benchmark
	// and equivalence tests. Set before issuing queries.
	DisableIndexScan bool

	// DisableStatsCosting reverts the planner to PR 4's purely structural
	// behavior: no estimated-rows costing, no covering scans, no
	// stats-driven join-strategy choice. The "v2 vs v3" benchmark knob.
	// Set before issuing queries.
	DisableStatsCosting bool

	// schemaVersion bumps on any DDL (table or index); statsEpoch on any
	// statistics event (see stats.go). Both stamp cached plans.
	schemaVersion atomic.Uint64
	statsEpoch    atomic.Uint64

	// plans memoizes access-path selection per prepared statement (see
	// plancache.go); it has its own mutex because read-locked queries
	// insert entries concurrently.
	plans planCache
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// TableNames returns the sorted names of all tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Result is the outcome of a SELECT.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Format renders the result as an aligned text table for CLIs and logs.
func (r *Result) Format() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, s := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			if pad := widths[i] - len(s); pad > 0 && i < len(vals)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Query parses and executes a SELECT statement. Optional args bind `?`
// placeholders positionally; hot paths should Prepare once and reuse the
// compiled statement instead.
func (db *DB) Query(sql string, args ...Value) (*Result, error) {
	st, err := PrepareAdHoc(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(db, args...)
}

// Exec parses and executes a non-SELECT statement, returning the number of
// rows affected (0 for DDL). Optional args bind `?` placeholders.
func (db *DB) Exec(sql string, args ...Value) (int, error) {
	st, err := PrepareAdHoc(sql)
	if err != nil {
		return 0, err
	}
	return st.Exec(db, args...)
}

// execStatement runs a parsed non-SELECT statement under the already-held
// write lock; ex carries its parameters.
func (db *DB) execStatement(stmt Statement, ex *executor) (int, error) {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return 0, db.execCreate(s)
	case *DropTableStmt:
		return 0, db.execDrop(s)
	case *CreateIndexStmt:
		return 0, db.createIndexLocked(s.Name, s.Table, s.Columns, s.IfNotExists)
	case *DropIndexStmt:
		return 0, db.dropIndexLocked(s.Name, s.IfExists)
	case *InsertStmt:
		return db.execInsert(s, ex)
	case *DeleteStmt:
		return db.execDelete(s, ex)
	case *UpdateStmt:
		return db.execUpdate(s, ex)
	case *AnalyzeStmt:
		return db.execAnalyze(s)
	case *SelectStmt, *ExplainStmt:
		return 0, fmt.Errorf("sqldb: use Query for SELECT statements")
	default:
		return 0, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// MustExec is Exec that panics on error, for tests and fixtures.
func (db *DB) MustExec(sql string, args ...Value) {
	if _, err := db.Exec(sql, args...); err != nil {
		panic(err)
	}
}

// CreateTable registers a table directly against the catalog, bypassing SQL
// parsing. This is the typed fast path session loaders use.
func (db *DB) CreateTable(name string, cols []Column) error {
	t, err := newTable(name, cols)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return fmt.Errorf("sqldb: table %q already exists", name)
	}
	t.epochRef = &db.statsEpoch
	db.tables[name] = t
	db.schemaVersion.Add(1)
	if db.logger != nil {
		if err := db.logger.LogCreateTable(name, cols); err != nil {
			return fmt.Errorf("sqldb: table %q created but not logged: %w", name, err)
		}
	}
	return nil
}

// CreateIndex registers a secondary index named name over one or more
// columns of table (the first column is the most significant key part). The
// index serves equality lookups from a hash table, range and prefix scans
// from sorted key tuples, and top-k streaming in key order; it is built
// lazily on first use and rebuilt after mutations. A comma-joined column
// list is also accepted inside a single string (the persistence layer's
// wire form).
func (db *DB) CreateIndex(name, table string, columns ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.createIndexLocked(name, table, columns, false); err != nil {
		return err
	}
	if db.logger != nil {
		if err := db.logger.LogCreateIndex(name, table, strings.Join(columns, ",")); err != nil {
			return fmt.Errorf("sqldb: index %q created but not logged: %w", name, err)
		}
	}
	return nil
}

func (db *DB) createIndexLocked(name, table string, columns []string, ifNotExists bool) error {
	if name == "" {
		return fmt.Errorf("sqldb: index needs a name")
	}
	// Accept the persistence wire form: column lists joined with ",".
	var cols []string
	for _, c := range columns {
		cols = append(cols, strings.Split(c, ",")...)
	}
	if len(cols) == 0 {
		return fmt.Errorf("sqldb: index %q needs at least one column", name)
	}
	for _, t := range db.tables {
		for _, ix := range t.indexes {
			if ix.name == name {
				if ifNotExists {
					return nil
				}
				return fmt.Errorf("sqldb: index %q already exists", name)
			}
		}
	}
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("sqldb: unknown table %q", table)
	}
	cis := make([]int, len(cols))
	seen := make(map[int]bool, len(cols))
	for i, column := range cols {
		ci, ok := t.colIdx[column]
		if !ok {
			return fmt.Errorf("sqldb: table %q has no column %q", table, column)
		}
		if seen[ci] {
			return fmt.Errorf("sqldb: index %q repeats column %q", name, column)
		}
		seen[ci] = true
		cis[i] = ci
	}
	t.indexes = append(t.indexes, &tableIndex{name: name, cols: cis})
	t.rebuildIdxCols()
	// Index DDL changes the path space: retire every cached plan stamped
	// with the old schema version, and re-cost against the new epoch.
	db.schemaVersion.Add(1)
	db.statsEpoch.Add(1)
	return nil
}

func (db *DB) dropIndexLocked(name string, ifExists bool) error {
	for _, t := range db.tables {
		for i, ix := range t.indexes {
			if ix.name == name {
				t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
				// Both caches must move together: idxCols gates sarg
				// collection, and the version bumps retire any cached plan
				// still holding the dropped *tableIndex.
				t.rebuildIdxCols()
				db.schemaVersion.Add(1)
				db.statsEpoch.Add(1)
				return nil
			}
		}
	}
	if ifExists {
		return nil
	}
	return fmt.Errorf("sqldb: unknown index %q", name)
}

// IndexNames returns the names of the table's secondary indexes, in column
// order of creation.
func (db *DB) IndexNames(table string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return nil, fmt.Errorf("sqldb: unknown table %q", table)
	}
	out := make([]string, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = ix.name
	}
	return out, nil
}

// InsertRows bulk-loads pre-built values into a table, bypassing SQL parsing.
// Every row must match the table's arity and coerce to its column types.
// This is the fast path the candidates generator uses.
func (db *DB) InsertRows(table string, rows [][]Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("sqldb: unknown table %q", table)
	}
	prepared := make([][]Value, 0, len(rows))
	for ri, row := range rows {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("sqldb: row %d has %d values, table %q has %d columns", ri, len(row), table, len(t.Cols))
		}
		stored := make([]Value, len(row))
		for ci, v := range row {
			cv, err := coerceTo(v, t.Cols[ci].Type)
			if err != nil {
				return fmt.Errorf("sqldb: row %d column %q: %w", ri, t.Cols[ci].Name, err)
			}
			stored[ci] = cv
		}
		prepared = append(prepared, stored)
	}
	if len(prepared) > 0 {
		if err := t.store.Append(prepared); err != nil {
			return err
		}
		t.version++
		db.noteDriftLocked(t, len(prepared))
		if db.logger != nil {
			if err := db.logger.LogInsertRows(table, prepared); err != nil {
				return fmt.Errorf("sqldb: rows inserted but not logged: %w", err)
			}
		}
	}
	return nil
}

func (db *DB) execCreate(s *CreateTableStmt) error {
	if _, exists := db.tables[s.Name]; exists {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: table %q already exists", s.Name)
	}
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = Column{Name: c.Name, Type: c.Type}
	}
	t, err := newTable(s.Name, cols)
	if err != nil {
		return err
	}
	t.epochRef = &db.statsEpoch
	db.tables[s.Name] = t
	db.schemaVersion.Add(1)
	return nil
}

func (db *DB) execDrop(s *DropTableStmt) error {
	t, ok := db.tables[s.Name]
	if !ok {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("sqldb: unknown table %q", s.Name)
	}
	delete(db.tables, s.Name)
	db.schemaVersion.Add(1)
	return t.store.Close() // releases page files/frames for paged tables
}

func (db *DB) execInsert(s *InsertStmt, ex *executor) (int, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	// Invalidate indexes only when rows were actually appended (partial
	// inserts before an error count; pure failures must not force the
	// next indexed query into a spurious rebuild).
	n0 := t.store.Len()
	defer func() {
		if n := t.store.Len() - n0; n != 0 {
			t.version++
			db.noteDriftLocked(t, n)
		}
	}()
	// Map statement columns to table positions.
	targets := make([]int, 0, len(t.Cols))
	if s.Cols == nil {
		for i := range t.Cols {
			targets = append(targets, i)
		}
	} else {
		for _, name := range s.Cols {
			i, ok := t.colIdx[name]
			if !ok {
				return 0, fmt.Errorf("sqldb: table %q has no column %q", s.Table, name)
			}
			targets = append(targets, i)
		}
	}
	if s.Select != nil {
		res, err := ex.execSelect(s.Select, nil)
		if err != nil {
			return 0, err
		}
		inserted := 0
		for _, srcRow := range res.Rows {
			if len(srcRow) != len(targets) {
				return inserted, fmt.Errorf("sqldb: INSERT ... SELECT yields %d columns, want %d", len(srcRow), len(targets))
			}
			row := make([]Value, len(t.Cols))
			for i, v := range srcRow {
				cv, err := coerceTo(v, t.Cols[targets[i]].Type)
				if err != nil {
					return inserted, fmt.Errorf("sqldb: column %q: %w", t.Cols[targets[i]].Name, err)
				}
				row[targets[i]] = cv
			}
			if err := t.store.Append([][]Value{row}); err != nil {
				return inserted, err
			}
			inserted++
		}
		return inserted, nil
	}
	inserted := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(targets) {
			return inserted, fmt.Errorf("sqldb: INSERT expects %d values, got %d", len(targets), len(exprRow))
		}
		row := make([]Value, len(t.Cols)) // unspecified columns default to NULL
		for i, e := range exprRow {
			v, err := ex.eval(e, nil)
			if err != nil {
				return inserted, err
			}
			cv, err := coerceTo(v, t.Cols[targets[i]].Type)
			if err != nil {
				return inserted, fmt.Errorf("sqldb: column %q: %w", t.Cols[targets[i]].Name, err)
			}
			row[targets[i]] = cv
		}
		if err := t.store.Append([][]Value{row}); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

func (db *DB) execDelete(s *DeleteStmt, ex *executor) (int, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	// Evaluate the whole WHERE pass into a fresh slice before touching the
	// store: an evaluation error mid-scan must leave the table unchanged
	// (compacting in place would duplicate already-shifted rows).
	kept := make([][]Value, 0, t.store.Len())
	deleted := 0
	err := t.store.Scan(func(_ int, row []Value) error {
		keep := true
		if s.Where != nil {
			scope := newScope(nil)
			scope.push(relationOf(t), row)
			v, err := ex.eval(s.Where, scope)
			if err != nil {
				return err
			}
			keep = !isTrue(v)
		} else {
			keep = false
		}
		if keep {
			kept = append(kept, row)
		} else {
			deleted++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if deleted > 0 {
		if err := t.store.ReplaceAll(kept); err != nil {
			return 0, err
		}
		t.version++
		db.noteDriftLocked(t, deleted)
	}
	return deleted, nil
}

func (db *DB) execUpdate(s *UpdateStmt, ex *executor) (int, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
	}
	cols := make([]int, len(s.Cols))
	for i, name := range s.Cols {
		ci, ok := t.colIdx[name]
		if !ok {
			return 0, fmt.Errorf("sqldb: table %q has no column %q", s.Table, name)
		}
		cols[i] = ci
	}
	// Two passes: evaluate every row's assignments first, then write. An
	// evaluation or coercion error mid-scan must leave the table unchanged
	// rather than half-updated.
	type pending struct {
		ri   int
		row  []Value
		vals []Value
	}
	var writes []pending
	err := t.store.Scan(func(ri int, row []Value) error {
		scope := newScope(nil)
		scope.push(relationOf(t), row)
		if s.Where != nil {
			v, err := ex.eval(s.Where, scope)
			if err != nil {
				return err
			}
			if !isTrue(v) {
				return nil
			}
		}
		// Evaluate all assignments against the pre-update row.
		newVals := make([]Value, len(cols))
		for i, e := range s.Exprs {
			v, err := ex.eval(e, scope)
			if err != nil {
				return err
			}
			cv, err := coerceTo(v, t.Cols[cols[i]].Type)
			if err != nil {
				return fmt.Errorf("sqldb: column %q: %w", s.Cols[i], err)
			}
			newVals[i] = cv
		}
		writes = append(writes, pending{ri: ri, row: row, vals: newVals})
		return nil
	})
	if err != nil {
		return 0, err
	}
	applied := 0
	var werr error
	for _, w := range writes {
		for i, ci := range cols {
			w.row[ci] = w.vals[i]
		}
		if werr = t.store.Set(w.ri, w.row); werr != nil {
			break // paged I/O failure: report the partial update
		}
		applied++
	}
	if applied > 0 {
		t.version++
		db.noteDriftLocked(t, applied)
	}
	return applied, werr
}
