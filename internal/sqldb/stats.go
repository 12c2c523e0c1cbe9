package sqldb

import (
	"fmt"
	"sort"
)

// This file is the planner's statistics layer: per-index cardinality (NDV
// per leading prefix) plus a small equi-depth histogram over the leading
// indexed column, derived for free whenever an index (re)builds — the build
// already has the distinct key tuples sorted with their row buckets — and
// rebuilt eagerly by ANALYZE. Statistics are advisory: they feed the cost
// model's row estimates and never affect which rows a plan returns. Every
// execution plans from the statistics current at that moment.

const (
	// histBuckets bounds the equi-depth histogram size; a bucket holds
	// ~rows/histBuckets rows and one distinct leading value never splits
	// across buckets.
	histBuckets = 32

	// defaultRangeSelectivity estimates a range predicate on a non-leading
	// index column, where no histogram applies.
	defaultRangeSelectivity = 1.0 / 3
)

// histBucket is one equi-depth bucket: the greatest leading-column value it
// holds and the cumulative row count through it.
type histBucket struct {
	upper Value
	cum   int
}

// indexStats is the distribution snapshot of one index, immutable once
// published (readers load it atomically; builders replace it wholesale).
type indexStats struct {
	rows      int   // rows present in the key structures (no NULL or NaN in any indexed column)
	nullRows  int   // rows excluded for a NULL indexed column
	nanRows   int   // rows left out for a NaN indexed column (not dumped)
	prefixNDV []int // distinct count of the leading k columns, k = 1..len(cols)
	hist      []histBucket
}

// deriveIndexStats computes statistics from a freshly built index, whose
// distinct key tuples are in sorted order with their row runs.
func deriveIndexStats(ix *tableIndex) *indexStats {
	ncols, nk := len(ix.cols), ix.nkeys()
	s := &indexStats{rows: len(ix.rows), nullRows: len(ix.nullRows), nanRows: len(ix.nanRows), prefixNDV: make([]int, ncols)}
	// Keys are sorted lexicographically, so a k-prefix is new exactly when
	// it differs from the previous key within the first k columns.
	for ki := 0; ki < nk; ki++ {
		if ki == 0 {
			for d := 0; d < ncols; d++ {
				s.prefixNDV[d]++
			}
			continue
		}
		prev, k := ix.key(ki-1), ix.key(ki)
		for d := 0; d < ncols; d++ {
			if c, _ := Compare(prev[d], k[d]); c != 0 {
				for e := d; e < ncols; e++ {
					s.prefixNDV[e]++
				}
				break
			}
		}
	}
	// Equi-depth histogram over the leading column: runs of equal leading
	// values are contiguous in key order; pack whole runs until a bucket
	// reaches its depth.
	if s.rows > 0 {
		depth := (s.rows + histBuckets - 1) / histBuckets
		inBucket := 0
		for ki := 0; ki < nk; ki++ {
			inBucket += len(ix.keyRows(ki))
			last := ki == nk-1
			boundary := last
			if !last {
				c, _ := Compare(ix.key(ki)[0], ix.key(ki + 1)[0])
				boundary = c != 0
			}
			if boundary && (inBucket >= depth || last) {
				s.hist = append(s.hist, histBucket{upper: ix.key(ki)[0], cum: int(ix.starts[ki+1])})
				inBucket = 0
			}
		}
	}
	return s
}

// rowsBelow estimates how many rows have leading column < v (or <= v when
// inclusive). Within a bucket the distribution is unknown; half the bucket
// is assumed below.
func (s *indexStats) rowsBelow(v Value, inclusive bool) float64 {
	if len(s.hist) == 0 {
		return 0
	}
	i := sort.Search(len(s.hist), func(i int) bool {
		c, _ := Compare(s.hist[i].upper, v)
		return c >= 0
	})
	if i == len(s.hist) {
		return float64(s.rows)
	}
	prev := 0.0
	if i > 0 {
		prev = float64(s.hist[i-1].cum)
	}
	width := float64(s.hist[i].cum) - prev
	if c, _ := Compare(s.hist[i].upper, v); c == 0 && inclusive {
		return prev + width
	}
	return prev + width/2
}

// rangeRows estimates the rows whose leading column falls within the given
// bounds (nil = unbounded; strict excludes the bound).
func (s *indexStats) rangeRows(lo, hi *Value, loStrict, hiStrict bool) float64 {
	hiRows := float64(s.rows)
	if hi != nil {
		hiRows = s.rowsBelow(*hi, !hiStrict)
	}
	loRows := 0.0
	if lo != nil {
		loRows = s.rowsBelow(*lo, loStrict)
	}
	est := hiRows - loRows
	if est < 0 {
		est = 0
	}
	if est > float64(s.rows) {
		est = float64(s.rows)
	}
	return est
}

// execAnalyze runs ANALYZE under the already-held write lock: it eagerly
// (re)builds every index of the named table (or all tables), which derives
// fresh statistics as a side effect. ANALYZE mutates no rows and is never
// WAL-logged; the statistics themselves ride the snapshot (see Dump.Stats).
func (db *DB) execAnalyze(s *AnalyzeStmt) (int, error) {
	var tables []*Table
	if s.Table == "" {
		names := make([]string, 0, len(db.tables))
		for n := range db.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tables = append(tables, db.tables[n])
		}
	} else {
		t, ok := db.tables[s.Table]
		if !ok {
			return 0, fmt.Errorf("sqldb: unknown table %q", s.Table)
		}
		tables = append(tables, t)
	}
	for _, t := range tables {
		for _, ix := range t.indexes {
			if err := ix.ensure(t); err != nil {
				return 0, err
			}
		}
	}
	return 0, nil
}

// IndexStatsDump is the serializable form of one index's statistics. Stats
// ride the snapshot (Dump.Stats) so a rehydrated session plans with real
// estimates without re-running ANALYZE or paying an index build. The NaN
// row count is left out, so the snapshot format is unchanged: a restored
// index reports none until its next build derives it.
type IndexStatsDump struct {
	Table      string
	Index      string
	Rows       int
	NullRows   int
	PrefixNDV  []int
	HistUppers []Value
	HistCum    []int
}

// dumpStatsLocked collects the statistics of every index that has any, in
// sorted-table then index-creation order (the snapshot codec's order).
func (db *DB) dumpStatsLocked() []IndexStatsDump {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []IndexStatsDump
	for _, n := range names {
		t := db.tables[n]
		for _, ix := range t.indexes {
			s := ix.stats.Load()
			if s == nil {
				continue
			}
			d := IndexStatsDump{
				Table:     n,
				Index:     ix.name,
				Rows:      s.rows,
				NullRows:  s.nullRows,
				PrefixNDV: append([]int(nil), s.prefixNDV...),
			}
			for _, b := range s.hist {
				d.HistUppers = append(d.HistUppers, b.upper)
				d.HistCum = append(d.HistCum, b.cum)
			}
			out = append(out, d)
		}
	}
	return out
}

// RestoreIndexStats installs dumped statistics onto the named index,
// returning false when the table or index is unknown or the dump's shape
// does not match the index (a schema that changed since the dump). The
// restored stats are usable immediately — the planner costs paths from them
// without triggering an index build.
func (db *DB) RestoreIndexStats(d IndexStatsDump) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[d.Table]
	if !ok {
		return false
	}
	for _, ix := range t.indexes {
		if ix.name != d.Index {
			continue
		}
		if len(d.PrefixNDV) != len(ix.cols) || len(d.HistUppers) != len(d.HistCum) {
			return false
		}
		s := &indexStats{
			rows:      d.Rows,
			nullRows:  d.NullRows,
			prefixNDV: append([]int(nil), d.PrefixNDV...),
		}
		for i, u := range d.HistUppers {
			s.hist = append(s.hist, histBucket{upper: u, cum: d.HistCum[i]})
		}
		ix.stats.Store(s)
		return true
	}
	return false
}

// IndexStats returns the current statistics of one index (nil when none
// have been derived yet), in dump form. Test and introspection helper.
func (db *DB) IndexStats(table, index string) *IndexStatsDump {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return nil
	}
	for _, ix := range t.indexes {
		if ix.name != index {
			continue
		}
		s := ix.stats.Load()
		if s == nil {
			return nil
		}
		d := &IndexStatsDump{
			Table:     table,
			Index:     index,
			Rows:      s.rows,
			NullRows:  s.nullRows,
			PrefixNDV: append([]int(nil), s.prefixNDV...),
		}
		for _, b := range s.hist {
			d.HistUppers = append(d.HistUppers, b.upper)
			d.HistCum = append(d.HistCum, b.cum)
		}
		return d
	}
	return nil
}
