package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// contractValue draws a value of column type typ from a small domain, so
// keys repeat; NULLs, -0.0 next to 0.0, and (when nan is set) NaN included.
func contractValue(rng *rand.Rand, typ Type, nan bool) Value {
	if rng.Intn(8) == 0 {
		return Null()
	}
	switch typ {
	case IntType:
		return Int(int64(rng.Intn(5) - 2))
	case FloatType:
		if nan && rng.Intn(16) == 0 {
			return Float(math.NaN())
		}
		return Float([]float64{-1.5, math.Copysign(0, -1), 0, 1, 2.5}[rng.Intn(5)])
	case BoolType:
		return Bool(rng.Intn(2) == 0)
	default:
		return Text([]string{"", "a", "ab", "b"}[rng.Intn(4)])
	}
}

// contractProbe draws a probe of any type: cross-type numeric probes, TEXT
// against numbers, NULL and NaN.
func contractProbe(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Int(int64(rng.Intn(6) - 2))
	case 1:
		return Float([]float64{math.Copysign(0, -1), 0, 1, 2.5, -1.5, math.NaN()}[rng.Intn(6)])
	case 2:
		return Bool(rng.Intn(2) == 0)
	case 3:
		return Text([]string{"", "a", "b"}[rng.Intn(3)])
	case 4:
		return Null()
	default:
		return Int(1)
	}
}

// sortedCopy sorts a copy of positions shared with an index.
func sortedCopy(pos []int) []int {
	out := slices.Clone(pos)
	slices.Sort(out)
	return out
}

// TestIndexLookupContract checks the flat index against a Compare scan over
// random two-column tables: lookupEqual and lookupPrefixRange return exactly
// the keyed rows (no NULL or NaN in an indexed column) that the scan keeps,
// where a Compare error (NULL, TEXT against a number) is no match. nanRows
// holds exactly the rows with a NaN and no NULL, so a lookup plus nanRows
// covers every row the scan keeps. A NaN probe is the one case that fails —
// NaN compares equal to every number — so the planner never probes with one
// (comparableWith) and the index returns nothing for it.
func TestIndexLookupContract(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	types := []Type{IntType, FloatType, BoolType, TextType}
	eqMatch := func(x, p Value) bool {
		c, err := Compare(x, p)
		return err == nil && c == 0
	}
	boundMatch := func(x Value, b *Value, strict bool, sign int) bool {
		if b == nil {
			return true
		}
		c, err := Compare(x, *b)
		return err == nil && (c == sign || !strict && c == 0)
	}
	for iter := 0; iter < 300; iter++ {
		ta, tb := types[rng.Intn(4)], types[rng.Intn(4)]
		db := New()
		if err := db.CreateTable("t", []Column{{Name: "a", Type: ta}, {Name: "b", Type: tb}}); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex("t_a_b", "t", "a", "b"); err != nil {
			t.Fatal(err)
		}
		nan := iter%4 == 3
		rows := make([][]Value, rng.Intn(48))
		for i := range rows {
			rows[i] = []Value{contractValue(rng, ta, nan), contractValue(rng, tb, nan)}
		}
		if err := db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		tbl := db.tables["t"]
		ix := tbl.indexes[0]
		if err := ix.ensure(tbl); err != nil {
			t.Fatal(err)
		}
		var nanRows []int // a NULL sends the row to nullRows instead
		for ri, r := range rows {
			if !r[0].IsNull() && !r[1].IsNull() && (isNaN(r[0]) || isNaN(r[1])) {
				nanRows = append(nanRows, ri)
			}
		}
		if !slices.Equal(ix.nanRows, nanRows) {
			t.Fatalf("iter %d: nanRows = %v, want %v (rows %v)", iter, ix.nanRows, nanRows, rows)
		}

		// Layout: keys strictly ascending, each key's rows ascending and
		// carrying the key's values, the key holding its lowest row's bits.
		seen := 0
		for ki := 0; ki < ix.nkeys(); ki++ {
			if ki > 0 && compareKeyTuples(ix.key(ki-1), ix.key(ki)) >= 0 {
				t.Fatalf("iter %d: keys %v, %v out of order", iter, ix.key(ki-1), ix.key(ki))
			}
			rs := ix.keyRows(ki)
			if len(rs) == 0 || !slices.IsSorted(rs) {
				t.Fatalf("iter %d: key %v rows %v", iter, ix.key(ki), rs)
			}
			if !slices.Equal(ix.key(ki), rows[rs[0]]) {
				t.Fatalf("iter %d: key %v does not hold row %d's values %v", iter, ix.key(ki), rs[0], rows[rs[0]])
			}
			seen += len(rs)
		}
		if seen+len(ix.nullRows)+len(nanRows) != len(rows) {
			t.Fatalf("iter %d: %d keyed + %d null + %d NaN rows, want %d", iter, seen, len(ix.nullRows), len(nanRows), len(rows))
		}

		// check asserts that got is exactly the keyed rows keep accepts
		// under the Compare scan. Every other row keep accepts is then in
		// nanRows, so got plus nanRows (what a probe returns) covers the
		// scan. A NaN probe finds nothing.
		check := func(what string, got []int, nanProbe bool, keep func(r []Value) bool) {
			t.Helper()
			var want []int
			for ri, r := range rows {
				if !nanProbe && !r[0].IsNull() && !r[1].IsNull() && !slices.Contains(nanRows, ri) && keep(r) {
					want = append(want, ri)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d: %s = %v, scan %v (rows %v, nanRows %v)", iter, what, got, want, rows, nanRows)
			}
		}
		anyNaN := func(vs ...*Value) bool {
			for _, v := range vs {
				if v != nil && isNaN(*v) {
					return true
				}
			}
			return false
		}
		for p := 0; p < 40; p++ {
			pa, pb := contractProbe(rng), contractProbe(rng)
			var lo, hi *Value
			if rng.Intn(2) == 0 {
				v := contractProbe(rng)
				lo = &v
			}
			if rng.Intn(2) == 0 {
				v := contractProbe(rng)
				hi = &v
			}
			loS, hiS := rng.Intn(2) == 0, rng.Intn(2) == 0

			check(fmt.Sprintf("lookupEqual(%v, %v)", pa, pb), ix.lookupEqual([]Value{pa, pb}), anyNaN(&pa, &pb),
				func(r []Value) bool { return eqMatch(r[0], pa) && eqMatch(r[1], pb) })
			check(fmt.Sprintf("lookupPrefixRange([%v], %v, %v, %v, %v)", pa, lo, hi, loS, hiS),
				sortedCopy(ix.lookupPrefixRange([]Value{pa}, lo, hi, loS, hiS)), anyNaN(&pa, lo, hi),
				func(r []Value) bool {
					return eqMatch(r[0], pa) && boundMatch(r[1], lo, loS, 1) && boundMatch(r[1], hi, hiS, -1)
				})
			check(fmt.Sprintf("lookupPrefixRange([], %v, %v, %v, %v)", lo, hi, loS, hiS),
				sortedCopy(ix.lookupPrefixRange(nil, lo, hi, loS, hiS)), anyNaN(lo, hi),
				func(r []Value) bool { return boundMatch(r[0], lo, loS, 1) && boundMatch(r[0], hi, hiS, -1) })
		}
	}
}
