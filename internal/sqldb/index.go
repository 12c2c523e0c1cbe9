package sqldb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
)

// tableIndex is a secondary index over one or more columns, stored flat:
// the distinct key tuples in lexicographic sorted order (by Compare) back
// equality lookups (binary search), range scans, prefix scans and top-k
// streaming, and each tuple owns a run of row positions. A row is excluded
// from the key structures when ANY indexed column is NULL (no comparison
// matches a NULL); the excluded rows are remembered in nullRows so prefix
// scans that constrain only a leading subset of the columns can still
// return a superset of the matching rows, and so top-k scans can place NULL
// order keys first or last. A row with no NULL but a NaN in some indexed
// column is excluded too and remembered in nanRows: Compare calls NaN equal
// to every number, which no sorted order can hold, so every probe adds
// nanRows to its candidates and the residual WHERE decides.
//
// The index is built lazily: lookups call ensure, which compares the
// version the index was built at against the table's mutation counter and
// rebuilds when stale. Mutations happen only under the DB write lock, so
// during any read-locked query the table version is frozen; the first
// reader to touch a stale index rebuilds it under the index mutex while
// later readers wait, then everyone reads the immutable built state.
type tableIndex struct {
	name string
	cols []int // indexed column positions, most significant first

	mu    sync.Mutex
	built uint64 // table version the structures below reflect; 0 = never
	// keys holds the distinct key tuples in sorted order, flattened: tuple
	// ki is keys[ki*w:(ki+1)*w] with w = len(cols) (see key). Each tuple
	// carries the values of its lowest row position.
	keys []Value
	// rows holds the positions of the keyed rows in key order, ascending
	// within each key; tuple ki owns rows[starts[ki]:starts[ki+1]] (see
	// keyRows), so starts has one entry more than there are keys.
	rows   []int
	starts []int32
	// nullRows are the positions excluded from keys because some indexed
	// column is NULL, in ascending row order; nanRows those excluded
	// because some indexed column is NaN (and none is NULL), likewise.
	nullRows []int
	nanRows  []int
}

// nkeys returns the number of distinct key tuples.
func (ix *tableIndex) nkeys() int { return len(ix.keys) / len(ix.cols) }

// key returns distinct key tuple ki (read only).
func (ix *tableIndex) key(ki int) []Value {
	w := len(ix.cols)
	return ix.keys[ki*w : (ki+1)*w : (ki+1)*w]
}

// keyRows returns the row positions of key tuple ki, ascending (read only).
func (ix *tableIndex) keyRows(ki int) []int {
	return ix.rows[ix.starts[ki]:ix.starts[ki+1]:ix.starts[ki+1]]
}

// compareKeyTuples orders two key tuples lexicographically. Keys of one
// column share a comparable group (values are coerced to the column type on
// insert) and hold no NaN, so Compare is a total order between keys; a
// Compare error counts as "equal", which is why probes are checked with
// probeable first.
func compareKeyTuples(a, b []Value) int {
	for i := range a {
		c, _ := Compare(a[i], b[i])
		if c != 0 {
			return c
		}
	}
	return 0
}

func isNaN(v Value) bool {
	f, ok := v.AsFloat()
	return ok && math.IsNaN(f)
}

// ensure (re)builds the index if the table mutated since the last build. It
// can fail only for paged tables (a page fault hitting an I/O error); the
// index is left untouched then and the caller aborts the query.
func (ix *tableIndex) ensure(t *Table) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.built == t.version {
		return nil
	}
	// One scan gathers every keyed row's tuple (scratch, flattened) and
	// position; positions arrive ascending.
	w := len(ix.cols)
	n := t.store.Len()
	tuples := make([]Value, 0, n*w)
	pos := make([]int, 0, n)
	var nullRows, nanRows []int
	err := t.store.Scan(func(ri int, row []Value) error {
		nan := false
		for _, ci := range ix.cols {
			v := row[ci]
			if v.IsNull() {
				tuples = tuples[:len(pos)*w]
				nullRows = append(nullRows, ri)
				return nil
			}
			nan = nan || isNaN(v)
			tuples = append(tuples, v)
		}
		if nan {
			tuples = tuples[:len(pos)*w]
			nanRows = append(nanRows, ri)
			return nil
		}
		pos = append(pos, ri)
		return nil
	})
	if err != nil {
		return err
	}
	tuple := func(i int32) []Value { return tuples[int(i)*w : int(i+1)*w] }
	// Sort a permutation by key tuple; ties keep scan order, so positions
	// stay ascending within a key and a key's first row is its lowest.
	order := make([]int32, len(pos))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := compareKeyTuples(tuple(a), tuple(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	newKey := func(i int) bool { return i == 0 || compareKeyTuples(tuple(order[i-1]), tuple(order[i])) != 0 }
	nk := 0
	for i := range order {
		if newKey(i) {
			nk++
		}
	}
	keys := make([]Value, 0, nk*w)
	rows := make([]int, len(order))
	starts := make([]int32, 0, nk+1)
	for i, o := range order {
		if newKey(i) {
			keys = append(keys, tuple(o)...)
			starts = append(starts, int32(i))
		}
		rows[i] = pos[o]
	}
	ix.keys = keys
	ix.rows = rows
	ix.starts = append(starts, int32(len(rows)))
	ix.nullRows = nullRows
	ix.nanRows = nanRows
	ix.built = t.version
	return nil
}

// probeable reports whether eq (leading columns) and the bounds on the next
// column can probe the key order: each must be comparableWith its column's
// type. A NULL, NaN or cross-family probe matches no key under Compare
// (NaN matches every number, which only a scan reproduces), so lookups
// return nothing for it. Call ensure first.
func (ix *tableIndex) probeable(eq []Value, lo, hi *Value) bool {
	if ix.nkeys() == 0 {
		return false
	}
	k := ix.key(0) // keys carry their column's type (coerced on insert)
	for i, v := range eq {
		if !comparableWith(k[i].typ, v) {
			return false
		}
	}
	m := len(eq)
	return (lo == nil || comparableWith(k[m].typ, *lo)) && (hi == nil || comparableWith(k[m].typ, *hi))
}

// lookupEqual returns the positions of rows whose full key tuple equals
// vals (one probe per indexed column), nil when none does or a probe is
// not probeable. Call ensure first. The returned slice is shared with the
// index — read only. Positions are ascending.
func (ix *tableIndex) lookupEqual(vals []Value) []int {
	return ix.lookupPrefixRange(vals, nil, nil, false, false)
}

// prefixRange returns the half-open key range [start, end) of tuples whose
// leading len(eq) columns equal eq and whose next column, when lo/hi are
// set, lies within the bounds (strict excludes the bound). With empty eq
// and nil bounds this is the whole key space; a probe that is not
// probeable gives the empty range. Call ensure first.
func (ix *tableIndex) prefixRange(eq []Value, lo, hi *Value, loStrict, hiStrict bool) (int, int) {
	if !ix.probeable(eq, lo, hi) {
		return 0, 0
	}
	m, nk := len(eq), ix.nkeys()
	start := sort.Search(nk, func(i int) bool {
		k := ix.key(i)
		if c := compareKeyTuples(k[:m], eq); c != 0 {
			return c > 0
		}
		if lo == nil {
			return true
		}
		c, _ := Compare(k[m], *lo)
		if loStrict {
			return c > 0
		}
		return c >= 0
	})
	end := sort.Search(nk, func(i int) bool {
		k := ix.key(i)
		if c := compareKeyTuples(k[:m], eq); c != 0 {
			return c > 0
		}
		if hi == nil {
			return false
		}
		c, _ := Compare(k[m], *hi)
		if hiStrict {
			return c >= 0
		}
		return c > 0
	})
	if end < start {
		end = start
	}
	return start, end
}

// lookupPrefixRange returns the row positions of every key in the prefix
// range (see prefixRange), nil when it is empty. The keys' row runs are
// contiguous, so the result is shared with the index — read only. The
// positions are NOT globally sorted (they follow key order).
func (ix *tableIndex) lookupPrefixRange(eq []Value, lo, hi *Value, loStrict, hiStrict bool) []int {
	start, end := ix.prefixRange(eq, lo, hi, loStrict, hiStrict)
	if start == end {
		return nil
	}
	return ix.rows[ix.starts[start]:ix.starts[end]:ix.starts[end]]
}

// comparableWith reports whether probing an indexed column (declared type
// colType) with v has well-defined Compare semantics. When it does not, the
// caller must fall back to a full scan so type errors surface exactly as in
// the unindexed path.
func comparableWith(colType Type, v Value) bool {
	switch colType {
	case IntType, FloatType, BoolType:
		f, ok := v.AsFloat()
		// A NaN probe compares "equal" to every number under Compare;
		// only the scan path reproduces that, so reject it here.
		return ok && !math.IsNaN(f)
	case TextType:
		_, ok := v.AsText()
		return ok
	default:
		return false
	}
}
