package constraints

import (
	"fmt"
	"math"
	"strings"

	"justintime/internal/feature"
)

// Timed attaches time applicability to a constraint: a nil Times slice means
// the constraint holds at every time point (the paper: "constraints may refer
// to a single point in time or all of them").
type Timed struct {
	C     *Constraint
	Times []int
}

func (tc Timed) appliesAt(t int) bool {
	if tc.Times == nil {
		return true
	}
	for _, x := range tc.Times {
		if x == t {
			return true
		}
	}
	return false
}

// Set is a conjunction of timed constraints. In JustInTime one Set holds the
// administrator's domain constraints joined with the user's personal
// preferences and limitations.
type Set struct {
	items []Timed
}

// NewSet builds a set from always-applicable constraints.
func NewSet(cs ...*Constraint) *Set {
	s := &Set{}
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// Add appends a constraint applying at all time points.
func (s *Set) Add(c *Constraint) { s.items = append(s.items, Timed{C: c}) }

// AddAt appends a constraint applying only at the given time points.
func (s *Set) AddAt(c *Constraint, times ...int) {
	cp := make([]int, len(times))
	copy(cp, times)
	s.items = append(s.items, Timed{C: c, Times: cp})
}

// Merge returns a new set holding the conjunction of both sets' constraints.
func Merge(a, b *Set) *Set {
	out := &Set{}
	if a != nil {
		out.items = append(out.items, a.items...)
	}
	if b != nil {
		out.items = append(out.items, b.items...)
	}
	return out
}

// Bind returns a copy of the set in which every attribute reference the
// schema knows, old(...) included, reads its vector index directly rather
// than resolving its name on every evaluation. Any other name (diff, gap,
// confidence, time, or an unknown attribute) is left as it is, so the bound
// set gives the same verdict and the same errors as s. The copy must only
// be evaluated with contexts over schema, and Box needs the unbound set: it
// recognises attribute references by name.
func (s *Set) Bind(schema *feature.Schema) *Set {
	out := &Set{items: make([]Timed, len(s.items))}
	for i, tc := range s.items {
		out.items[i] = Timed{C: &Constraint{root: bind(tc.C.root, schema), src: tc.C.src}, Times: tc.Times}
	}
	return out
}

// bind rewrites n's schema attribute references into indexNodes.
func bind(n node, schema *feature.Schema) node {
	switch nd := n.(type) {
	case refNode:
		if i, ok := schema.Index(nd.name); ok {
			return indexNode{i: i, old: nd.old}
		}
	case arithNode:
		return arithNode{op: nd.op, l: bind(nd.l, schema), r: bind(nd.r, schema)}
	case negNode:
		return negNode{e: bind(nd.e, schema)}
	case cmpNode:
		return cmpNode{op: nd.op, l: bind(nd.l, schema), r: bind(nd.r, schema)}
	case logicNode:
		return logicNode{and: nd.and, l: bind(nd.l, schema), r: bind(nd.r, schema)}
	case notNode:
		return notNode{e: bind(nd.e, schema)}
	case funcNode:
		args := make([]node, len(nd.args))
		for i, a := range nd.args {
			args[i] = bind(a, schema)
		}
		return funcNode{name: nd.name, args: args}
	}
	return n
}

// Len returns the number of constraints in the set.
func (s *Set) Len() int { return len(s.items) }

// Eval reports whether every constraint applicable at ctx.Time holds.
func (s *Set) Eval(ctx *Context) (bool, error) {
	for _, tc := range s.items {
		if !tc.appliesAt(ctx.Time) {
			continue
		}
		ok, err := tc.C.Eval(ctx)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// String lists the constraints, annotated with their time applicability.
func (s *Set) String() string {
	var parts []string
	for _, tc := range s.items {
		if tc.Times == nil {
			parts = append(parts, tc.C.String())
		} else {
			parts = append(parts, fmt.Sprintf("%s @%v", tc.C.String(), tc.Times))
		}
	}
	return strings.Join(parts, " AND ")
}

// Box is a per-feature interval relaxation of the constraint set: every
// point satisfying the set lies inside the box (the converse need not hold).
// The candidate generator uses it to clamp move proposals cheaply before the
// exact Eval check.
type Box struct {
	Lo, Hi []float64
}

// Contains reports whether x lies inside the box (inclusive, with Epsilon
// slack).
func (b Box) Contains(x []float64) bool {
	for i := range x {
		if x[i] < b.Lo[i]-feature.Epsilon || x[i] > b.Hi[i]+feature.Epsilon {
			return false
		}
	}
	return true
}

// ClampInto writes x clamped into the box to dst and returns dst. dst may
// alias x.
func (b Box) ClampInto(dst, x []float64) []float64 {
	for i, v := range x {
		if v < b.Lo[i] {
			v = b.Lo[i]
		}
		if v > b.Hi[i] {
			v = b.Hi[i]
		}
		dst[i] = v
	}
	return dst
}

// Box derives interval bounds for every feature at the given time point,
// starting from the schema's field bounds and tightening with every
// applicable atomic comparison of the form `attr op constant` (where the
// constant side may use old(...) references and arithmetic over them).
// Immutable features are pinned to their original values. Disjunctions are
// conservatively ignored (they cannot tighten a sound relaxation).
func (s *Set) Box(schema *feature.Schema, original []float64, time int) Box {
	d := schema.Dim()
	box := Box{Lo: make([]float64, d), Hi: make([]float64, d)}
	for i := 0; i < d; i++ {
		f := schema.Field(i)
		box.Lo[i], box.Hi[i] = f.Min, f.Max
		if f.Immutable {
			box.Lo[i], box.Hi[i] = original[i], original[i]
		}
	}
	// Evaluation context for constant-folding the non-attribute side.
	ctx := &Context{Schema: schema, Original: original, Candidate: original, Time: time}
	for _, tc := range s.items {
		if !tc.appliesAt(time) {
			continue
		}
		tightenConjuncts(tc.C.root, schema, ctx, &box)
	}
	for i := 0; i < d; i++ {
		if box.Lo[i] > box.Hi[i] {
			// Contradictory constraints: collapse to an empty interval at
			// the original value so callers still behave deterministically.
			box.Lo[i], box.Hi[i] = math.Inf(1), math.Inf(-1)
		}
	}
	return box
}

// tightenConjuncts walks AND-chains, tightening box bounds from atomic
// comparisons where one side is a bare attribute reference and the other is
// constant with respect to the candidate.
func tightenConjuncts(n node, schema *feature.Schema, ctx *Context, box *Box) {
	switch nd := n.(type) {
	case logicNode:
		if nd.and {
			tightenConjuncts(nd.l, schema, ctx, box)
			tightenConjuncts(nd.r, schema, ctx, box)
		}
	case cmpNode:
		tightenAtom(nd, schema, ctx, box)
	}
}

func tightenAtom(nd cmpNode, schema *feature.Schema, ctx *Context, box *Box) {
	ref, refLeft := bareFeatureRef(nd.l, schema)
	other := nd.r
	if ref == nil {
		ref, _ = bareFeatureRef(nd.r, schema)
		refLeft = false
		other = nd.l
		if ref == nil {
			return
		}
	}
	if !constantWrtCandidate(other, schema) {
		return
	}
	v, err := other.eval(ctx)
	if err != nil {
		return
	}
	c, ok := v.number()
	if !ok {
		return
	}
	i, _ := schema.Index(ref.name)
	op := nd.op
	if !refLeft {
		// c op attr  =>  attr (flipped op) c
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	switch op {
	case "=":
		if c > box.Lo[i] {
			box.Lo[i] = c
		}
		if c < box.Hi[i] {
			box.Hi[i] = c
		}
	case "<", "<=":
		if c < box.Hi[i] {
			box.Hi[i] = c
		}
	case ">", ">=":
		if c > box.Lo[i] {
			box.Lo[i] = c
		}
	}
}

// bareFeatureRef returns the refNode when n is a direct (non-old) reference
// to a schema feature.
func bareFeatureRef(n node, schema *feature.Schema) (*refNode, bool) {
	r, ok := n.(refNode)
	if !ok || r.old {
		return nil, false
	}
	if _, exists := schema.Index(r.name); !exists {
		return nil, false
	}
	return &r, true
}

// constantWrtCandidate reports whether n never reads the candidate vector
// (only numbers, old() references, time, and arithmetic over them).
func constantWrtCandidate(n node, schema *feature.Schema) bool {
	switch nd := n.(type) {
	case numNode:
		return true
	case refNode:
		if nd.old {
			return true
		}
		return nd.name == "time" // diff/gap/confidence and features read the candidate
	case arithNode:
		return constantWrtCandidate(nd.l, schema) && constantWrtCandidate(nd.r, schema)
	case negNode:
		return constantWrtCandidate(nd.e, schema)
	case funcNode:
		for _, a := range nd.args {
			if !constantWrtCandidate(a, schema) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
