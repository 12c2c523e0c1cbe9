package constraints

import (
	"strings"
	"testing"

	"justintime/internal/feature"
)

func loanSchema(t *testing.T) *feature.Schema {
	t.Helper()
	s, err := feature.NewSchema(
		feature.Field{Name: "age", Kind: feature.Integer, Min: 18, Max: 100, Immutable: true, Temporal: true},
		feature.Field{Name: "income", Kind: feature.Continuous, Min: 0, Max: 500000},
		feature.Field{Name: "debt", Kind: feature.Continuous, Min: 0, Max: 20000},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ctxFor(t *testing.T, candidate []float64, conf float64, time int) *Context {
	t.Helper()
	return &Context{
		Schema:     loanSchema(t),
		Original:   []float64{30, 50000, 2000},
		Candidate:  candidate,
		Time:       time,
		Confidence: conf,
	}
}

func evalSrc(t *testing.T, src string, ctx *Context) bool {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	ok, err := c.Eval(ctx)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return ok
}

func TestBasicComparisons(t *testing.T) {
	ctx := ctxFor(t, []float64{30, 60000, 2000}, 0.7, 1)
	cases := []struct {
		src  string
		want bool
	}{
		{"income > 50000", true},
		{"income >= 60000", true},
		{"income < 60000", false},
		{"income <= 60000", true},
		{"income = 60000", true},
		{"income != 60000", false},
		{"debt = old(debt)", true},
		{"income <= old(income) * 1.3", true},
		{"income <= old(income) * 1.1", false},
		{"confidence > 0.5", true},
		{"time = 1", true},
		{"time >= 2", false},
		{"gap = 1", true},     // only income changed
		{"diff > 9999", true}, // l2 distance is 10000
		{"diff <= 10000", true},
		{"abs(income - old(income)) <= 10000", true},
		{"min(income, old(income)) = 50000", true},
		{"max(debt, 3000) = 3000", true},
	}
	for _, c := range cases {
		if got := evalSrc(t, c.src, ctx); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestLogicalOperators(t *testing.T) {
	ctx := ctxFor(t, []float64{30, 60000, 2000}, 0.7, 1)
	cases := []struct {
		src  string
		want bool
	}{
		{"income > 50000 AND debt <= 2000", true},
		{"income > 70000 AND debt <= 2000", false},
		{"income > 70000 OR debt <= 2000", true},
		{"NOT income > 70000", true},
		{"NOT (income > 50000 AND debt <= 2000)", false},
		{"income > 70000 OR (debt <= 2000 AND time = 1)", true},
		// AND binds tighter than OR.
		{"income > 70000 OR debt <= 2000 AND time = 2", false},
	}
	for _, c := range cases {
		if got := evalSrc(t, c.src, ctx); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"income >",
		"income > > 5",
		"(income > 5",
		"income # 5",
		"old(5) > 1",
		"old(income > 1",
		"nosuchfunc(1) > 0",
		"abs(1, 2) > 0",
		"min(1) > 0",
		"income > 5 extra",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := ctxFor(t, []float64{30, 60000, 2000}, 0.7, 1)
	evalBad := []string{
		"nosuch > 5",          // unknown attribute
		"old(nosuch) > 5",     // unknown old attribute
		"income",              // not a condition
		"income + (debt > 5)", // arithmetic on condition
		"NOT income",          // NOT on number
		"(income > 5) + 1 > 0",
		"income / 0 > 1",
	}
	for _, src := range evalBad {
		c, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if _, err := c.Eval(ctx); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestSetEvalAndTimes(t *testing.T) {
	s := NewSet(MustParse("income <= 100000"))
	s.AddAt(MustParse("debt <= 1500"), 2, 3)

	at1 := ctxFor(t, []float64{30, 60000, 2000}, 0.7, 1)
	ok, err := s.Eval(at1)
	if err != nil || !ok {
		t.Fatalf("time 1 should pass (debt rule inactive): %v %v", ok, err)
	}
	at2 := ctxFor(t, []float64{30, 60000, 2000}, 0.7, 2)
	ok, err = s.Eval(at2)
	if err != nil || ok {
		t.Fatalf("time 2 should fail debt rule: %v %v", ok, err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if str := s.String(); !strings.Contains(str, "@[2 3]") {
		t.Errorf("String = %q", str)
	}
}

func TestMerge(t *testing.T) {
	admin := NewSet(MustParse("income <= 100000"))
	user := NewSet(MustParse("debt >= 500"))
	merged := Merge(admin, user)
	if merged.Len() != 2 {
		t.Fatalf("merged len %d", merged.Len())
	}
	if m := Merge(nil, user); m.Len() != 1 {
		t.Errorf("merge with nil: %d", m.Len())
	}
}

func TestBoxBasic(t *testing.T) {
	schema := loanSchema(t)
	orig := []float64{30, 50000, 2000}
	s := NewSet(
		MustParse("income <= old(income) * 1.2"),
		MustParse("income >= 10000"),
		MustParse("debt >= 500"),
	)
	box := s.Box(schema, orig, 0)
	ageIdx, _ := schema.Index("age")
	if box.Lo[ageIdx] != 30 || box.Hi[ageIdx] != 30 {
		t.Errorf("immutable age should be pinned: [%g, %g]", box.Lo[ageIdx], box.Hi[ageIdx])
	}
	incIdx, _ := schema.Index("income")
	if box.Lo[incIdx] != 10000 || box.Hi[incIdx] != 60000 {
		t.Errorf("income box = [%g, %g], want [10000, 60000]", box.Lo[incIdx], box.Hi[incIdx])
	}
	debtIdx, _ := schema.Index("debt")
	if box.Lo[debtIdx] != 500 || box.Hi[debtIdx] != 20000 {
		t.Errorf("debt box = [%g, %g]", box.Lo[debtIdx], box.Hi[debtIdx])
	}
}

func TestBoxIgnoresDisjunctionsAndFlips(t *testing.T) {
	schema := loanSchema(t)
	orig := []float64{30, 50000, 2000}
	s := NewSet(
		MustParse("income <= 80000 OR debt <= 100"), // disjunction: must not tighten
		MustParse("40000 <= income"),                // flipped operand order
		MustParse("income = old(income) OR gap <= 2"),
	)
	box := s.Box(schema, orig, 0)
	incIdx, _ := schema.Index("income")
	if box.Hi[incIdx] != 500000 {
		t.Errorf("disjunction tightened hi: %g", box.Hi[incIdx])
	}
	if box.Lo[incIdx] != 40000 {
		t.Errorf("flipped comparison missed: lo = %g", box.Lo[incIdx])
	}
}

func TestBoxEqualityPins(t *testing.T) {
	schema := loanSchema(t)
	orig := []float64{30, 50000, 2000}
	s := NewSet(MustParse("debt = old(debt)"))
	box := s.Box(schema, orig, 0)
	debtIdx, _ := schema.Index("debt")
	if box.Lo[debtIdx] != 2000 || box.Hi[debtIdx] != 2000 {
		t.Errorf("equality should pin debt: [%g, %g]", box.Lo[debtIdx], box.Hi[debtIdx])
	}
}

func TestBoxContradictionCollapses(t *testing.T) {
	schema := loanSchema(t)
	orig := []float64{30, 50000, 2000}
	s := NewSet(MustParse("income >= 90000"), MustParse("income <= 10000"))
	box := s.Box(schema, orig, 0)
	incIdx, _ := schema.Index("income")
	if box.Lo[incIdx] <= box.Hi[incIdx] {
		t.Error("contradiction should produce an empty interval")
	}
	if box.Contains(orig) {
		t.Error("empty box should contain nothing")
	}
}

func TestBoxClampAndContains(t *testing.T) {
	schema := loanSchema(t)
	orig := []float64{30, 50000, 2000}
	s := NewSet(MustParse("income <= 60000"))
	box := s.Box(schema, orig, 0)
	x := []float64{30, 90000, 2000}
	if box.Contains(x) {
		t.Error("90000 income should be outside")
	}
	clamped := box.ClampInto(make([]float64, len(x)), x)
	if clamped[1] != 60000 {
		t.Errorf("clamped income = %g", clamped[1])
	}
	if !box.Contains(clamped) {
		t.Error("clamped point must be inside")
	}
	// Clamping into another slice must not mutate the input.
	if x[1] != 90000 {
		t.Error("ClampInto mutated input")
	}
	// ClampInto clamps in place when dst aliases x.
	if got := box.ClampInto(x, x); &got[0] != &x[0] || x[1] != 60000 || x[0] != 30 {
		t.Errorf("in-place ClampInto = %v", x)
	}
}

func TestBoxTimeDependent(t *testing.T) {
	schema := loanSchema(t)
	orig := []float64{30, 50000, 2000}
	s := &Set{}
	s.AddAt(MustParse("income <= 55000"), 0)
	s.AddAt(MustParse("income <= 70000"), 1)
	b0 := s.Box(schema, orig, 0)
	b1 := s.Box(schema, orig, 1)
	incIdx, _ := schema.Index("income")
	if b0.Hi[incIdx] != 55000 || b1.Hi[incIdx] != 70000 {
		t.Errorf("time-dependent boxes: %g / %g", b0.Hi[incIdx], b1.Hi[incIdx])
	}
}

func TestConstraintStringRoundTrip(t *testing.T) {
	src := "income <= old(income) * 1.3 AND gap <= 2"
	c := MustParse(src)
	if c.String() != src {
		t.Errorf("String = %q", c.String())
	}
}

func TestEpsilonToleranceOnEquality(t *testing.T) {
	ctx := ctxFor(t, []float64{30, 50000 + 1e-12, 2000}, 0.7, 0)
	if !evalSrc(t, "income = old(income)", ctx) {
		t.Error("sub-epsilon difference should count as equal")
	}
	if !evalSrc(t, "gap = 0", ctx) {
		t.Error("sub-epsilon change should not count toward gap")
	}
}
