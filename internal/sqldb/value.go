// Package sqldb is an in-memory relational database engine with a SQL
// dialect sufficient to run every query JustInTime issues (the paper stores
// candidates in MySQL): CREATE TABLE / INSERT / DELETE / UPDATE and SELECT
// with inner joins, WHERE, GROUP BY / HAVING, ORDER BY, LIMIT/OFFSET,
// DISTINCT, aggregates, and scalar / EXISTS / IN / quantified (ALL, ANY)
// subqueries including correlated ones. SELECTs run through a cost-aware
// planner over single- and multi-column secondary indexes (one prefix scan
// per table, index nested-loop joins, top-k under ORDER BY/LIMIT)
// whose chosen plan is inspectable with EXPLAIN; results are always
// byte-identical to the naive scan path. It is the repository's database
// substrate and is usable independently of the rest of the system.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the dynamic types a Value can hold.
type Type int

const (
	// NullType is the type of the SQL NULL value.
	NullType Type = iota
	// IntType is a 64-bit signed integer.
	IntType
	// FloatType is a 64-bit float.
	FloatType
	// TextType is a string.
	TextType
	// BoolType is a boolean.
	BoolType
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case NullType:
		return "NULL"
	case IntType:
		return "INT"
	case FloatType:
		return "FLOAT"
	case TextType:
		return "TEXT"
	case BoolType:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is one dynamically-typed SQL value, 32 bytes: the type tag, one
// 64-bit payload word and a string. n holds an INT's bits, a FLOAT's
// math.Float64bits, or a BOOL as 0/1; s holds TEXT. Struct equality (==,
// reflect.DeepEqual) therefore compares floats bit for bit: -0.0 differs
// from 0.0 and a NaN equals itself. Compare is the SQL ordering.
type Value struct {
	typ Type
	n   uint64
	s   string
}

// Null returns the SQL NULL value (also the zero Value).
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{typ: IntType, n: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{typ: FloatType, n: math.Float64bits(v)} }

// Text wraps a string.
func Text(v string) Value { return Value{typ: TextType, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	if v {
		return Value{typ: BoolType, n: 1}
	}
	return Value{typ: BoolType}
}

// Type returns the value's dynamic type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == NullType }

// i is the payload of an INT value.
func (v Value) i() int64 { return int64(v.n) }

// f is the payload of a FLOAT value.
func (v Value) f() float64 { return math.Float64frombits(v.n) }

// b is the payload of a BOOL value.
func (v Value) b() bool { return v.n != 0 }

// AsFloat converts numeric and boolean values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.typ {
	case IntType:
		return float64(v.i()), true
	case FloatType:
		return v.f(), true
	case BoolType:
		return float64(v.n), true
	default:
		return 0, false
	}
}

// AsInt returns the value as an int64 when it is an integer or an integral
// float.
func (v Value) AsInt() (int64, bool) {
	switch v.typ {
	case IntType:
		return v.i(), true
	case FloatType:
		if f := v.f(); f == math.Trunc(f) && !math.IsInf(f, 0) {
			return int64(f), true
		}
		return 0, false
	case BoolType:
		return int64(v.n), true
	default:
		return 0, false
	}
}

// AsText returns the string payload of a TEXT value.
func (v Value) AsText() (string, bool) {
	if v.typ == TextType {
		return v.s, true
	}
	return "", false
}

// AsBool returns the boolean payload of a BOOL value.
func (v Value) AsBool() (bool, bool) {
	if v.typ == BoolType {
		return v.b(), true
	}
	return false, false
}

// String renders the value for display ("NULL" for null).
func (v Value) String() string {
	switch v.typ {
	case NullType:
		return "NULL"
	case IntType:
		return strconv.FormatInt(v.i(), 10)
	case FloatType:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TextType:
		return v.s
	case BoolType:
		if v.b() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// key encodes the value for hashing in DISTINCT / GROUP BY, with NULLs equal
// to each other and ints equal to integral floats (so GROUP BY 1 and 1.0
// coincide, matching comparison semantics).
func (v Value) key() string {
	switch v.typ {
	case NullType:
		return "n"
	case IntType:
		return "f" + strconv.FormatFloat(float64(v.i()), 'g', -1, 64)
	case FloatType:
		return "f" + strconv.FormatFloat(v.f(), 'g', -1, 64)
	case TextType:
		return "t" + v.s
	case BoolType:
		if v.b() {
			return "b1"
		}
		return "b0"
	default:
		return "?"
	}
}

// Compare orders two non-null values. It returns (-1|0|1, nil) when
// comparable; comparing a NULL or incompatible types yields an error (the
// caller decides on three-valued-logic handling).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, errNullCompare
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	switch {
	case aNum && bNum:
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	case a.typ == TextType && b.typ == TextType:
		return strings.Compare(a.s, b.s), nil
	default:
		return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.typ, b.typ)
	}
}

var errNullCompare = fmt.Errorf("sqldb: comparison with NULL")

// coerceTo converts v to the declared column type on insert/update, erroring
// on lossy or nonsensical conversions. NULL passes through any type.
func coerceTo(v Value, t Type) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case IntType:
		if i, ok := v.AsInt(); ok {
			return Int(i), nil
		}
	case FloatType:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	case TextType:
		if s, ok := v.AsText(); ok {
			return Text(s), nil
		}
	case BoolType:
		if b, ok := v.AsBool(); ok {
			return Bool(b), nil
		}
		if i, ok := v.AsInt(); ok && (i == 0 || i == 1) {
			return Bool(i == 1), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: cannot store %s value %s in %s column", v.typ, v, t)
}
