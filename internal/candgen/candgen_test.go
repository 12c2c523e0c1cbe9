package candgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"justintime/internal/constraints"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
)

// twoDSchema is a simple mutable 2-D space on [0,100]^2.
func twoDSchema(t *testing.T) *feature.Schema {
	t.Helper()
	s, err := feature.NewSchema(
		feature.Field{Name: "a", Kind: feature.Continuous, Min: 0, Max: 100},
		feature.Field{Name: "b", Kind: feature.Continuous, Min: 0, Max: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// trainedForest learns "a + b > 100" on dense data.
func trainedForest(t *testing.T) *mlmodel.Forest {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	X := make([][]float64, 2000)
	y := make([]bool, 2000)
	for i := range X {
		X[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
		y[i] = X[i][0]+X[i][1] > 100
	}
	f, err := mlmodel.TrainForest(X, y, mlmodel.ForestConfig{Trees: 25, MaxDepth: 8, MinLeaf: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func trainedLogistic(t *testing.T) *mlmodel.Logistic {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	X := make([][]float64, 1500)
	y := make([]bool, 1500)
	for i := range X {
		X[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
		y[i] = X[i][0]+X[i][1] > 100
	}
	m, err := mlmodel.TrainLogistic(X, y, mlmodel.DefaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkInvariant verifies Definition II.3 for every returned candidate.
func checkInvariant(t *testing.T, p Problem, cands []Candidate) {
	t.Helper()
	for i, c := range cands {
		if err := p.Schema.Validate(c.X); err != nil {
			t.Errorf("candidate %d invalid: %v", i, err)
		}
		conf := p.Model.Predict(c.X)
		if conf <= p.Threshold {
			t.Errorf("candidate %d not decision-altering: p=%.3f <= %.3f", i, conf, p.Threshold)
		}
		if c.Confidence != conf {
			t.Errorf("candidate %d stored confidence %.4f, model says %.4f", i, c.Confidence, conf)
		}
		ctx := &constraints.Context{Schema: p.Schema, Original: p.Input, Candidate: c.X, Time: p.Time, Confidence: conf}
		ok, err := p.Constraints.Eval(ctx)
		if err != nil || !ok {
			t.Errorf("candidate %d violates constraints: %v %v", i, ok, err)
		}
		if got := feature.Diff(c.X, p.Input); got != c.Diff {
			t.Errorf("candidate %d diff mismatch", i)
		}
		if got := feature.Gap(c.X, p.Input); got != c.Gap {
			t.Errorf("candidate %d gap mismatch", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	schema := twoDSchema(t)
	model := mlmodel.ConstantModel{P: 1}
	good := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: []float64{10, 10}, Constraints: constraints.NewSet()}
	if _, _, err := Generate(Problem{}, DefaultConfig()); err == nil {
		t.Error("empty problem should fail")
	}
	if _, _, err := Generate(good, Config{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, _, err := Generate(good, Config{K: 2, DiversityPenalty: 1.5}); err == nil {
		t.Error("DiversityPenalty >= 1 should fail")
	}
	bad := good
	bad.Input = []float64{-5, 10}
	if _, _, err := Generate(bad, DefaultConfig()); err == nil {
		t.Error("out-of-bounds input should fail")
	}
	cfg := DefaultConfig()
	cfg.Weights = Weights{Diff: -1}
	if _, _, err := Generate(good, cfg); err == nil {
		t.Error("negative weight should fail")
	}
	cfg = DefaultConfig()
	cfg.ShrinkRounds = -1
	if _, _, err := Generate(good, cfg); err == nil {
		t.Error("negative ShrinkRounds should fail")
	}
}

func TestForestCandidates(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	p := Problem{
		Schema:      schema,
		Model:       model,
		Threshold:   0.5,
		Input:       []float64{30, 30}, // rejected: sum 60
		Constraints: constraints.NewSet(),
	}
	cands, stats, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates found")
	}
	checkInvariant(t, p, cands)
	if stats.Evaluations == 0 || stats.PoolSize == 0 {
		t.Errorf("stats look empty: %+v", stats)
	}
	// The axis probes must find gap-1 candidates (move a alone to ~70+).
	foundGap1 := false
	for _, c := range cands {
		if c.Gap == 1 {
			foundGap1 = true
		}
	}
	if !foundGap1 {
		t.Error("expected a single-feature candidate from axis probes")
	}
	// The best candidate should not move absurdly far: the decision
	// boundary is ~40 range-units away.
	if cands[0].Diff > 90 {
		t.Errorf("best candidate moved %.1f, boundary is ~57 away", cands[0].Diff)
	}
}

func TestLogisticCandidates(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedLogistic(t)
	p := Problem{
		Schema:      schema,
		Model:       model,
		Threshold:   0.5,
		Input:       []float64{20, 40},
		Constraints: constraints.NewSet(),
	}
	cands, stats, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	checkInvariant(t, p, cands)
	if stats.FirstFeasibleIter == -1 {
		t.Error("no feasible iteration recorded")
	}
}

func TestNoModificationCandidate(t *testing.T) {
	// Input already approved: the diff=0 candidate must appear and rank.
	schema := twoDSchema(t)
	model := trainedForest(t)
	p := Problem{
		Schema:      schema,
		Model:       model,
		Threshold:   0.5,
		Input:       []float64{80, 80},
		Constraints: constraints.NewSet(),
	}
	cands, _, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		if c.Diff == 0 && c.Gap == 0 {
			found = true
		}
	}
	if !found {
		t.Error("unmodified approved input should be a candidate")
	}
}

func TestConstraintsRespected(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	set := constraints.NewSet(
		constraints.MustParse("a <= old(a) + 15"), // a can grow at most 15
		constraints.MustParse("b >= old(b)"),      // b cannot decrease
	)
	p := Problem{
		Schema:      schema,
		Model:       model,
		Threshold:   0.5,
		Input:       []float64{30, 30},
		Constraints: set,
	}
	cands, _, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("constrained problem should still be solvable (b can rise to 100)")
	}
	checkInvariant(t, p, cands)
	for i, c := range cands {
		if c.X[0] > 45+1e-6 {
			t.Errorf("candidate %d violates a-cap: %g", i, c.X[0])
		}
		if c.X[1] < 30-1e-6 {
			t.Errorf("candidate %d decreased b: %g", i, c.X[1])
		}
	}
}

func TestImmutableFeaturePinned(t *testing.T) {
	s, err := feature.NewSchema(
		feature.Field{Name: "locked", Kind: feature.Continuous, Min: 0, Max: 100, Immutable: true},
		feature.Field{Name: "free", Kind: feature.Continuous, Min: 0, Max: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	model := trainedForest(t) // over the same 2-D domain
	p := Problem{
		Schema:      s,
		Model:       model,
		Threshold:   0.5,
		Input:       []float64{30, 30},
		Constraints: constraints.NewSet(),
	}
	cands, _, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		if c.X[0] != 30 {
			t.Errorf("candidate %d modified the immutable feature: %g", i, c.X[0])
		}
	}
}

func TestInfeasibleProblemReturnsEmpty(t *testing.T) {
	schema := twoDSchema(t)
	p := Problem{
		Schema:      schema,
		Model:       mlmodel.ConstantModel{P: 0.1},
		Threshold:   0.5,
		Input:       []float64{30, 30},
		Constraints: constraints.NewSet(),
	}
	cands, stats, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("constant-reject model cannot have candidates, got %d", len(cands))
	}
	if stats.FirstFeasibleIter != -1 {
		t.Error("FirstFeasibleIter should be -1")
	}
}

func TestDeterminism(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	p := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: []float64{30, 30}, Constraints: constraints.NewSet()}
	cfg := DefaultConfig()
	a, sa, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare float bits, not feature.Equal's epsilon: the search must be
	// exactly reproducible.
	if string(hashOutput(nil, a, sa)) != string(hashOutput(nil, b, sb)) {
		t.Fatalf("runs differ:\n%+v %+v\n%+v %+v", a, sa, b, sb)
	}
}

func TestKLimitsOutput(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	p := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: []float64{40, 40}, Constraints: constraints.NewSet()}
	cfg := DefaultConfig()
	cfg.K = 3
	cands, _, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > 3 {
		t.Errorf("K=3 returned %d candidates", len(cands))
	}
}

// Diversity ablation: with the MMR penalty the average pairwise distance of
// the selected set should be at least that of greedy selection.
func TestDiverseSelectionSpreadsCandidates(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	p := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: []float64{30, 30}, Constraints: constraints.NewSet()}

	spread := func(lambda float64) float64 {
		cfg := DefaultConfig()
		cfg.K = 5
		cfg.DiversityPenalty = lambda
		cands, _, err := Generate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) < 2 {
			return 0
		}
		var sum float64
		var n int
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				sum += feature.Diff(cands[i].X, cands[j].X)
				n++
			}
		}
		return sum / float64(n)
	}
	greedy, diverse := spread(0), spread(0.7)
	if diverse < greedy {
		t.Errorf("diverse spread %.2f < greedy spread %.2f", diverse, greedy)
	}
}

func TestConvergesWithinFewIterations(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	p := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: []float64{30, 30}, Constraints: constraints.NewSet()}
	_, stats, err := Generate(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Errorf("search did not converge in %d iterations", stats.Iterations)
	}
	if stats.Iterations > 15 {
		t.Errorf("took %d iterations; the paper reports a small number", stats.Iterations)
	}
}

// Property: for random rejected inputs, every returned candidate satisfies
// the Definition II.3 invariant (decision-altering and within constraints).
func TestInvariantProperty(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	set := constraints.NewSet(constraints.MustParse("gap <= 2"))
	f := func(seedA, seedB uint8) bool {
		in := []float64{float64(seedA) * 100 / 255, float64(seedB) * 100 / 255}
		p := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: in, Constraints: set}
		cfg := DefaultConfig()
		cfg.K = 4
		cands, _, err := Generate(p, cfg)
		if err != nil {
			return false
		}
		for _, c := range cands {
			if c.Confidence <= 0.5 || c.Gap > 2 {
				return false
			}
			if schema.Validate(c.X) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Objective weights steer the returned candidates: a confidence-heavy
// scalarization yields a higher-confidence best candidate than a
// distance-heavy one, which in turn yields a smaller best diff.
func TestWeightsSteerObjectives(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	base := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: []float64{30, 30}, Constraints: constraints.NewSet()}

	run := func(w Weights) Candidate {
		cfg := DefaultConfig()
		cfg.K = 1
		cfg.DiversityPenalty = 0
		cfg.Weights = w
		cands, _, err := Generate(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		return cands[0]
	}
	confHeavy := run(Weights{Diff: 0.1, Gap: 0.1, Confidence: 5})
	diffHeavy := run(Weights{Diff: 5, Gap: 0.1, Confidence: 0.1})
	if confHeavy.Confidence < diffHeavy.Confidence {
		t.Errorf("confidence-heavy best p %.3f < diff-heavy %.3f", confHeavy.Confidence, diffHeavy.Confidence)
	}
	if diffHeavy.Diff > confHeavy.Diff {
		t.Errorf("diff-heavy best diff %.1f > confidence-heavy %.1f", diffHeavy.Diff, confHeavy.Diff)
	}
}

// Time-dependent constraints apply per time point: the same problem at a
// different Time sees a different constraint set.
func TestTimeDependentConstraints(t *testing.T) {
	schema := twoDSchema(t)
	model := trainedForest(t)
	set := &constraints.Set{}
	*set = *constraints.NewSet()
	set.AddAt(constraints.MustParse("a <= 35"), 0) // only binds at t=0
	mk := func(tp int) int {
		cands, _, err := Generate(Problem{
			Schema: schema, Model: model, Threshold: 0.5,
			Input: []float64{30, 30}, Constraints: set, Time: tp,
		}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		over := 0
		for _, c := range cands {
			if c.X[0] > 35+1e-9 {
				over++
			}
		}
		return over
	}
	if over := mk(0); over != 0 {
		t.Errorf("t=0: %d candidates violate the t=0 cap", over)
	}
	if over := mk(1); over == 0 {
		t.Log("t=1: no candidate uses a > 35 (allowed but not required)")
	}
}
