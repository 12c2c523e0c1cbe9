package feature

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "age", Kind: Integer, Min: 18, Max: 100, Temporal: true, Immutable: true, Unit: "y"},
		Field{Name: "income", Kind: Continuous, Min: 0, Max: 1e6, Unit: "$"},
		Field{Name: "debt", Kind: Continuous, Min: 0, Max: 1e5},
		Field{Name: "seniority", Kind: Integer, Min: 0, Max: 60, Temporal: true},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
		substr string
	}{
		{"empty", nil, "at least one"},
		{"dup", []Field{{Name: "a", Max: 1}, {Name: "a", Max: 1}}, "duplicate"},
		{"badname", []Field{{Name: "Age", Max: 1}}, "lower_snake"},
		{"digitstart", []Field{{Name: "1age", Max: 1}}, "digit"},
		{"emptyname", []Field{{Name: ""}}, "empty"},
		{"minmax", []Field{{Name: "a", Min: 2, Max: 1}}, "min"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.fields...)
			if err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
			if !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not mention %q", err, c.substr)
			}
		})
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4", s.Dim())
	}
	if got := s.Names(); got[0] != "age" || got[3] != "seniority" {
		t.Errorf("Names = %v", got)
	}
	i, ok := s.Index("debt")
	if !ok || i != 2 {
		t.Errorf("Index(debt) = %d, %v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index(missing) should be false")
	}
	if f := s.Field(1); f.Name != "income" || f.Unit != "$" {
		t.Errorf("Field(1) = %+v", f)
	}
	if got := s.MutableIndices(); len(got) != 3 || got[0] != 1 {
		t.Errorf("MutableIndices = %v", got)
	}
	if got := s.TemporalIndices(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("TemporalIndices = %v", got)
	}
	// Fields returns a copy: mutating it must not affect the schema.
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "age" {
		t.Error("Fields() aliases internal storage")
	}
}

func TestClamp(t *testing.T) {
	s := testSchema(t)
	got := s.Clamp([]float64{17.4, -5, 2e5, 3.6})
	want := []float64{18, 0, 1e5, 4}
	if !Equal(got, want) {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
	// Clamp must not mutate the input.
	in := []float64{30.2, 100, 10, 1}
	_ = s.Clamp(in)
	if in[0] != 30.2 {
		t.Error("Clamp mutated its input")
	}
}

func TestClampInto(t *testing.T) {
	s := testSchema(t)
	in := []float64{17.4, -5, 2e5, 3.6}
	want := []float64{18, 0, 1e5, 4}

	// dst distinct from x: x is untouched, dst is returned and filled.
	dst := make([]float64, len(in))
	if got := s.ClampInto(dst, in); &got[0] != &dst[0] || !Equal(dst, want) {
		t.Errorf("ClampInto(dst, x) = %v, want %v in dst", got, want)
	}
	if in[0] != 17.4 || in[3] != 3.6 {
		t.Errorf("ClampInto mutated x: %v", in)
	}

	// dst aliasing x: clamped in place.
	if got := s.ClampInto(in, in); &got[0] != &in[0] || !Equal(in, want) {
		t.Errorf("in-place ClampInto = %v, want %v", in, want)
	}

	// Same bits as Clamp on random vectors.
	f := func(a, b, c, d float64) bool {
		x := []float64{a, b, c, d}
		ref := s.Clamp(x)
		got := s.ClampInto(x, x)
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	defer func() {
		if recover() == nil {
			t.Error("ClampInto with a short dst should panic")
		}
	}()
	s.ClampInto(make([]float64, 2), in)
}

func TestValidate(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate([]float64{30, 5e4, 100, 3}); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	cases := []struct {
		name string
		x    []float64
	}{
		{"dim", []float64{1, 2}},
		{"nan", []float64{math.NaN(), 0, 0, 0}},
		{"inf", []float64{30, math.Inf(1), 0, 0}},
		{"bounds", []float64{30, -1, 0, 0}},
		{"integral", []float64{30.5, 0, 0, 0}},
	}
	for _, c := range cases {
		if err := s.Validate(c.x); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestClampAlwaysValidates(t *testing.T) {
	s := testSchema(t)
	f := func(a, b, c, d float64) bool {
		x := []float64{a, b, c, d}
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				x[i] = 0
			}
		}
		return s.Validate(s.Clamp(x)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormat(t *testing.T) {
	s := testSchema(t)
	got := s.Format([]float64{30, 55000.5, 1200.25, 4})
	want := "age=30y, income=55000.5$, debt=1200.25, seniority=4"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestChangedFields(t *testing.T) {
	s := testSchema(t)
	a := []float64{30, 5e4, 100, 3}
	b := []float64{30, 6e4, 100, 5}
	got := s.ChangedFields(a, b)
	if len(got) != 2 || got[0] != "income" || got[1] != "seniority" {
		t.Errorf("ChangedFields = %v", got)
	}
	if got := s.ChangedFields(a, a); got != nil {
		t.Errorf("ChangedFields(a,a) = %v, want nil", got)
	}
}
