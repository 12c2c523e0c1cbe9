// Package feature defines the feature-space vocabulary shared by every other
// JustInTime component: a Schema describing each input dimension (name, kind,
// bounds, temporal behaviour, mutability) and vector helpers implementing the
// distance measures the paper exposes to users as the special properties
// "diff" (l2 distance) and "gap" (l0 distance).
package feature

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind classifies the value domain of a single feature.
type Kind int

const (
	// Continuous features take arbitrary real values within their bounds.
	Continuous Kind = iota
	// Integer features are rounded to the nearest integer after every
	// modification (e.g. age in years, household size).
	Integer
	// Ordinal features are integer-coded categories with a meaningful
	// order (e.g. household status: single < couple < family).
	Ordinal
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Ordinal:
		return "ordinal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Field describes one dimension of the input space.
type Field struct {
	// Name is the attribute name users and SQL columns refer to.
	// It must be a non-empty lower_snake identifier, unique in a Schema.
	Name string
	// Kind is the value domain.
	Kind Kind
	// Min and Max bound the admissible values (inclusive).
	Min, Max float64
	// Temporal marks features whose value evolves on its own as time
	// passes (Definition II.4 of the paper): age grows, seniority grows.
	Temporal bool
	// Immutable marks features the candidate generator must never modify
	// (a person cannot change their age directly, only time can).
	Immutable bool
	// Unit is a human-readable unit used when rendering insights ("$",
	// "years", ...). Optional.
	Unit string
}

// Schema is an immutable ordered collection of fields describing R^d.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema validates the field list and builds a schema. Field names must be
// unique, non-empty identifiers and every field must have Min <= Max.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("feature: schema needs at least one field")
	}
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if err := validateName(f.Name); err != nil {
			return nil, fmt.Errorf("feature: field %d: %w", i, err)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("feature: duplicate field %q", f.Name)
		}
		if f.Min > f.Max {
			return nil, fmt.Errorf("feature: field %q: min %g > max %g", f.Name, f.Min, f.Max)
		}
		idx[f.Name] = i
	}
	cp := make([]Field, len(fields))
	copy(cp, fields)
	return &Schema{fields: cp, index: idx}, nil
}

// MustSchema is like NewSchema but panics on error. Intended for package-level
// schema literals in examples and tests.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("empty field name")
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return fmt.Errorf("field name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("field name %q contains %q; use lower_snake identifiers", name, r)
		}
	}
	return nil
}

// Dim returns the dimensionality d of the input space.
func (s *Schema) Dim() int { return len(s.fields) }

// Field returns the i-th field. It panics if i is out of range, matching
// slice-index semantics.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Names returns the field names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.fields))
	for i, f := range s.fields {
		names[i] = f.Name
	}
	return names
}

// Fields returns a copy of the field list in schema order.
func (s *Schema) Fields() []Field {
	cp := make([]Field, len(s.fields))
	copy(cp, s.fields)
	return cp
}

// MutableIndices returns the indices of fields the candidate generator may
// modify (i.e. not Immutable), in ascending order.
func (s *Schema) MutableIndices() []int {
	var out []int
	for i, f := range s.fields {
		if !f.Immutable {
			out = append(out, i)
		}
	}
	return out
}

// TemporalIndices returns the indices of Temporal fields in ascending order.
func (s *Schema) TemporalIndices() []int {
	var out []int
	for i, f := range s.fields {
		if f.Temporal {
			out = append(out, i)
		}
	}
	return out
}

// Clamp returns a copy of x with every coordinate clamped into its field
// bounds and Integer/Ordinal coordinates rounded to the nearest integer.
// It panics if len(x) != Dim().
func (s *Schema) Clamp(x []float64) []float64 {
	return s.ClampInto(make([]float64, len(x)), x)
}

// ClampInto is Clamp writing into dst, which it returns. dst may alias x.
// It panics if len(x) or len(dst) != Dim().
func (s *Schema) ClampInto(dst, x []float64) []float64 {
	s.mustDim(x)
	s.mustDim(dst)
	for i := range s.fields {
		f := &s.fields[i]
		v := x[i]
		if f.Kind != Continuous {
			v = math.Round(v)
		}
		if v < f.Min {
			v = f.Min
		}
		if v > f.Max {
			v = f.Max
		}
		dst[i] = v
	}
	return dst
}

// Validate reports whether x is a well-formed point of the schema's space:
// correct dimension, finite values, within bounds, integral where required.
func (s *Schema) Validate(x []float64) error {
	if len(x) != len(s.fields) {
		return fmt.Errorf("feature: vector has dim %d, schema has %d", len(x), len(s.fields))
	}
	for i, f := range s.fields {
		v := x[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("feature: %s: non-finite value %g", f.Name, v)
		}
		if v < f.Min || v > f.Max {
			return fmt.Errorf("feature: %s: value %g outside [%g, %g]", f.Name, v, f.Min, f.Max)
		}
		if f.Kind != Continuous && v != math.Round(v) {
			return fmt.Errorf("feature: %s: value %g is not integral", f.Name, v)
		}
	}
	return nil
}

func (s *Schema) mustDim(x []float64) {
	if len(x) != len(s.fields) {
		panic(fmt.Sprintf("feature: vector dim %d does not match schema dim %d", len(x), len(s.fields)))
	}
}

// Format renders x as "name=value" pairs in schema order, for logs and
// insights.
func (s *Schema) Format(x []float64) string {
	s.mustDim(x)
	var b strings.Builder
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", f.Name, formatValue(f, x[i]))
	}
	return b.String()
}

func formatValue(f Field, v float64) string {
	var s string
	if f.Kind == Continuous {
		s = trimFloat(v)
	} else {
		s = fmt.Sprintf("%d", int64(math.Round(v)))
	}
	if f.Unit != "" {
		s += f.Unit
	}
	return s
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// ChangedFields returns the names of fields on which a and b differ by more
// than Epsilon, sorted in schema order. It is the feature-level view of the
// "gap" property.
func (s *Schema) ChangedFields(a, b []float64) []string {
	s.mustDim(a)
	s.mustDim(b)
	var names []string
	for i, f := range s.fields {
		if math.Abs(a[i]-b[i]) > Epsilon {
			names = append(names, f.Name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		return s.index[names[i]] < s.index[names[j]]
	})
	return names
}
