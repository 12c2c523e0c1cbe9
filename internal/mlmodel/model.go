// Package mlmodel implements the machine-learning substrate of JustInTime
// from scratch on the standard library: CART decision trees, bagged random
// forests (the model family the paper trains per time span with H2O), and
// logistic regression (used by the Kumagai–Iwata-style future-model
// generator), plus evaluation metrics and decision-threshold calibration.
package mlmodel

import "fmt"

// Model is the paper's Definition II.1: a function M: R^d -> [0,1] where
// M(x) is the probability of the desired positive classification of x.
type Model interface {
	// Predict returns the positive-class probability for x.
	Predict(x []float64) float64
	// Name identifies the model family for logs and experiment rows.
	Name() string
}

// BatchModel is implemented by models with a native many-rows-at-once
// scoring path. PredictBatch(X)[i] must equal Predict(X[i]) for every row;
// the built-in implementations are bit-identical, which callers that cache
// scores (the candidate generator's pool) rely on.
type BatchModel interface {
	Model
	// PredictBatch returns the positive-class probability of every row.
	PredictBatch(X [][]float64) []float64
}

// PredictBatch scores every row of X with m, dispatching to the model's
// native batch path when it has one and falling back to per-row Predict
// calls otherwise. This is the entry point batch consumers (candidate
// generation, metrics) should use so that any Model keeps working.
func PredictBatch(m Model, X [][]float64) []float64 {
	if bm, ok := m.(BatchModel); ok {
		return bm.PredictBatch(X)
	}
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// batchIntoModel is implemented by models that score a batch into caller
// memory; the built-in models all do.
type batchIntoModel interface {
	PredictBatchInto(dst []float64, X [][]float64)
}

// PredictBatchInto writes the positive-class probability of every row of X
// to dst, which must have len(X) elements. A model with a native path
// writes dst directly; any other model is scored through PredictBatch and
// the result copied, so a wrapper that only implements PredictBatch still
// sees every call and every row.
func PredictBatchInto(m Model, dst []float64, X [][]float64) {
	if len(dst) != len(X) {
		panic(fmt.Sprintf("mlmodel: PredictBatchInto: %d outputs for %d rows", len(dst), len(X)))
	}
	if bm, ok := m.(batchIntoModel); ok {
		bm.PredictBatchInto(dst, X)
		return
	}
	copy(dst, PredictBatch(m, X))
}

// Classify applies the model threshold delta of Definition II.3: x is
// classified positively iff M(x) > delta.
func Classify(m Model, x []float64, delta float64) bool {
	return m.Predict(x) > delta
}

// ConstantModel predicts a fixed probability regardless of input. It is the
// degenerate fallback when training data has a single class, and a useful
// test double.
type ConstantModel struct {
	P float64
}

// Predict returns the constant probability.
func (c ConstantModel) Predict([]float64) float64 { return c.P }

// PredictBatch implements BatchModel.
func (c ConstantModel) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	c.PredictBatchInto(out, X)
	return out
}

// PredictBatchInto writes the constant probability to dst[:len(X)].
func (c ConstantModel) PredictBatchInto(dst []float64, X [][]float64) {
	for i := range X {
		dst[i] = c.P
	}
}

// Name implements Model.
func (c ConstantModel) Name() string { return fmt.Sprintf("constant(%.2f)", c.P) }

// Mapped applies a feature transform before delegating to an inner model,
// letting linear models see engineered features (ratios like debt-to-income)
// while the rest of the system keeps operating on the raw attribute space.
type Mapped struct {
	Inner Model
	// Map transforms a raw input into the inner model's feature space.
	// It must return a freshly allocated (or otherwise retained-safe)
	// slice on every call: PredictBatch transforms the whole batch before
	// scoring, so a transform that reuses one output buffer would alias
	// every row to the last one.
	Map func(x []float64) []float64
	// Label annotates Name(); optional.
	Label string
}

// Predict implements Model.
func (m Mapped) Predict(x []float64) float64 { return m.Inner.Predict(m.Map(x)) }

// PredictBatch implements BatchModel: all rows are transformed first, then
// scored through the inner model's batch path in one call.
func (m Mapped) PredictBatch(X [][]float64) []float64 {
	Z := make([][]float64, len(X))
	for i, x := range X {
		Z[i] = m.Map(x)
	}
	return PredictBatch(m.Inner, Z)
}

// Name implements Model.
func (m Mapped) Name() string {
	if m.Label != "" {
		return m.Label + "+" + m.Inner.Name()
	}
	return "mapped+" + m.Inner.Name()
}

func checkTrainingData(X [][]float64, y []bool) (dim int, err error) {
	if len(X) == 0 {
		return 0, fmt.Errorf("mlmodel: empty training set")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("mlmodel: %d rows but %d labels", len(X), len(y))
	}
	dim = len(X[0])
	if dim == 0 {
		return 0, fmt.Errorf("mlmodel: zero-dimensional rows")
	}
	for i, row := range X {
		if len(row) != dim {
			return 0, fmt.Errorf("mlmodel: row %d has dim %d, want %d", i, len(row), dim)
		}
	}
	return dim, nil
}

func positiveFraction(y []bool) float64 {
	if len(y) == 0 {
		return 0
	}
	n := 0
	for _, v := range y {
		if v {
			n++
		}
	}
	return float64(n) / float64(len(y))
}
