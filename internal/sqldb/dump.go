package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// TableDump is the structural state of one table: its declared schema and a
// deep copy of its rows. It carries no index state — indexes are declared
// separately (IndexDump) and rebuilt lazily after a restore.
//
// For tables on paged storage, Rows is nil and Paged carries the live store
// instead: materializing every row would defeat the buffer pool, so the
// persistence layer checkpoints the pages themselves (CheckpointTo) while
// the dump is exclusively locked. A dump holding Paged entries is only
// coherent for the duration of CheckpointWith, or as the input NewFromDump
// takes ownership of.
type TableDump struct {
	Name  string
	Cols  []Column
	Rows  [][]Value
	Paged *PagedTable
}

// IndexDump is one secondary index declaration. Column holds the indexed
// column names joined with "," (identifiers cannot contain commas), so
// composite indexes ride in the same snapshot/WAL wire slot single-column
// indexes always used — old snapshots load unchanged.
type IndexDump struct {
	Name   string
	Table  string
	Column string
}

// Dump is a point-in-time structural copy of a whole database, suitable for
// serialization. Tables are ordered by name and indexes by (table, creation
// order), so two dumps of equal databases are deeply equal.
type Dump struct {
	Tables  []TableDump
	Indexes []IndexDump
}

// Dump returns a consistent structural copy of the database taken under the
// read lock. Row slices are deep-copied (UPDATE mutates rows in place, so
// sharing them would let later writes leak into the dump); Values themselves
// are immutable and copied by value.
func (db *DB) Dump() *Dump {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dumpLocked()
}

// CheckpointWith runs fn against a structural dump while the database is
// exclusively locked: no mutation (and no mutation-log append — the logger
// runs under the same lock) can interleave with fn. This is the consistency
// point persistence checkpoints hang off: fn typically writes the dump to a
// snapshot file and resets the write-ahead log, and the exclusive lock
// guarantees no logged mutation falls between the two.
func (db *DB) CheckpointWith(fn func(*Dump) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return fn(db.dumpLocked())
}

func (db *DB) dumpLocked() *Dump {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	d := &Dump{}
	for _, n := range names {
		t := db.tables[n]
		cols := make([]Column, len(t.Cols))
		copy(cols, t.Cols)
		td := TableDump{Name: t.Name, Cols: cols}
		if pt, paged := t.store.(*PagedTable); paged {
			td.Paged = pt
		} else {
			live, _ := t.store.All() // slice store: cannot fail
			rows := make([][]Value, len(live))
			for i, r := range live {
				rows[i] = append([]Value(nil), r...)
			}
			td.Rows = rows
		}
		d.Tables = append(d.Tables, td)
		for _, ix := range t.indexes {
			names := make([]string, len(ix.cols))
			for i, ci := range ix.cols {
				names[i] = t.Cols[ci].Name
			}
			d.Indexes = append(d.Indexes, IndexDump{Name: ix.name, Table: t.Name, Column: strings.Join(names, ",")})
		}
	}
	return d
}

// NewFromDump builds a fresh database from a structural dump. Slice tables
// get a copy of their rows; a table whose Paged store is set is registered
// on that store without decoding it, and the database takes ownership of
// every paged store in the dump: on error they are all closed. The result
// has no logger attached, and its secondary indexes are declared but built
// lazily on first use.
func NewFromDump(d *Dump) (*DB, error) {
	db := New()
	fail := func(err error) (*DB, error) {
		for _, td := range d.Tables {
			if td.Paged != nil {
				td.Paged.Close()
			}
		}
		return nil, err
	}
	for _, td := range d.Tables {
		if err := db.CreateTable(td.Name, td.Cols); err != nil {
			return fail(fmt.Errorf("sqldb: restoring table %q: %w", td.Name, err))
		}
		if td.Paged != nil {
			db.tables[td.Name].store = td.Paged // db is not shared yet: no lock needed
		} else if len(td.Rows) > 0 {
			if err := db.InsertRows(td.Name, td.Rows); err != nil {
				return fail(fmt.Errorf("sqldb: restoring rows of %q: %w", td.Name, err))
			}
		}
	}
	for _, ix := range d.Indexes {
		if err := db.CreateIndex(ix.Name, ix.Table, ix.Column); err != nil {
			return fail(fmt.Errorf("sqldb: restoring index %q: %w", ix.Name, err))
		}
	}
	return db, nil
}
