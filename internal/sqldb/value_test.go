package sqldb

import (
	"testing"
	"unsafe"
)

// TestValueSize pins the 32-byte layout (type tag, one payload word, a
// string): every stored row, index key and histogram bound is made of
// Values, so a wider Value grows each session's resident store.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
	if v := Int(42); v.Type() != IntType || v.String() != "42" {
		t.Errorf("Int: %v %s", v.Type(), v)
	}
	if v := Float(2.5); v.Type() != FloatType || v.String() != "2.5" {
		t.Errorf("Float: %v %s", v.Type(), v)
	}
	if v := Text("hi"); v.Type() != TextType || v.String() != "hi" {
		t.Errorf("Text: %v %s", v.Type(), v)
	}
	if v := Bool(true); v.Type() != BoolType || v.String() != "TRUE" {
		t.Errorf("Bool: %v %s", v.Type(), v)
	}
	if Null().String() != "NULL" || Bool(false).String() != "FALSE" {
		t.Error("String rendering wrong")
	}

	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("Int.AsFloat")
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Error("Bool.AsFloat")
	}
	if _, ok := Text("x").AsFloat(); ok {
		t.Error("Text.AsFloat should fail")
	}
	if i, ok := Float(4.0).AsInt(); !ok || i != 4 {
		t.Error("integral Float.AsInt")
	}
	if _, ok := Float(4.5).AsInt(); ok {
		t.Error("fractional Float.AsInt should fail")
	}
	if s, ok := Text("x").AsText(); !ok || s != "x" {
		t.Error("AsText")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool")
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{NullType: "NULL", IntType: "INT", FloatType: "FLOAT", TextType: "TEXT", BoolType: "BOOL"}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Text("a"), Text("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Int(1), 0}, // booleans coerce numerically
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%s,%s): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Error("comparing NULL should error")
	}
	if _, err := Compare(Text("a"), Int(1)); err == nil {
		t.Error("comparing text with int should error")
	}
}

func TestValueKeyEquivalences(t *testing.T) {
	if Int(1).key() != Float(1.0).key() {
		t.Error("int 1 and float 1.0 should share a group key")
	}
	if Int(1).key() == Text("1").key() {
		t.Error("int 1 and text '1' must not collide")
	}
	if Null().key() != Null().key() {
		t.Error("nulls should group together")
	}
	if Bool(true).key() == Bool(false).key() {
		t.Error("booleans must differ")
	}
}

func TestCoerceTo(t *testing.T) {
	if v, err := coerceTo(Float(3.0), IntType); err != nil || v.Type() != IntType {
		t.Errorf("coerce 3.0->INT: %v %v", v, err)
	}
	if _, err := coerceTo(Float(3.5), IntType); err == nil {
		t.Error("coerce 3.5->INT should fail")
	}
	if v, err := coerceTo(Int(3), FloatType); err != nil || v.Type() != FloatType {
		t.Errorf("coerce 3->FLOAT: %v %v", v, err)
	}
	if v, err := coerceTo(Int(1), BoolType); err != nil || !isTrue(v) {
		t.Errorf("coerce 1->BOOL: %v %v", v, err)
	}
	if _, err := coerceTo(Int(2), BoolType); err == nil {
		t.Error("coerce 2->BOOL should fail")
	}
	if _, err := coerceTo(Text("x"), IntType); err == nil {
		t.Error("coerce text->INT should fail")
	}
	if v, err := coerceTo(Null(), IntType); err != nil || !v.IsNull() {
		t.Error("NULL should coerce to any type")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%", "abcdef", true},
		{"%def", "abcdef", true},
		{"%cd%", "abcdef", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%", "", true},
		{"", "", true},
		{"", "x", false},
		{"%%x", "x", true},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "aXXbYY", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}
