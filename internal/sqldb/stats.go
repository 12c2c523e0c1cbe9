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
	nanRows   int   // rows left out for a NaN indexed column
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
// WAL-logged or snapshotted: statistics exist only where an index build
// derives them, so a rehydrated database plans structurally until its first
// build.
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
