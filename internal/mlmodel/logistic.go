package mlmodel

import (
	"fmt"
	"math"
)

// Scaler standardizes features to zero mean and unit variance. Future-model
// generators that extrapolate logistic weights across eras must use one
// shared scaler so the weight trajectories are comparable.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-feature mean and standard deviation. Features with
// zero variance get Std 1 so transforms never divide by zero.
func FitScaler(X [][]float64) (*Scaler, error) {
	dim := 0
	if len(X) > 0 {
		dim = len(X[0])
	}
	if dim == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit scaler on empty data")
	}
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	n := float64(len(X))
	for _, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("mlmodel: ragged rows in scaler input")
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// Transform returns the standardized copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// LogisticConfig controls logistic-regression training.
type LogisticConfig struct {
	// Epochs is the number of full gradient-descent passes.
	Epochs int
	// LearningRate is the gradient step size.
	LearningRate float64
	// L2 is the ridge penalty on the weights (not the bias).
	L2 float64
	// Scaler, when non-nil, standardizes inputs with a shared scaler;
	// when nil a scaler is fitted on the training data.
	Scaler *Scaler
}

// DefaultLogisticConfig returns a configuration that converges on the
// synthetic loan data.
func DefaultLogisticConfig() LogisticConfig {
	return LogisticConfig{Epochs: 300, LearningRate: 0.5, L2: 1e-4}
}

func (c LogisticConfig) validate() error {
	if c.Epochs < 1 {
		return fmt.Errorf("mlmodel: Epochs must be >= 1, got %d", c.Epochs)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("mlmodel: LearningRate must be positive, got %g", c.LearningRate)
	}
	if c.L2 < 0 {
		return fmt.Errorf("mlmodel: L2 must be non-negative, got %g", c.L2)
	}
	return nil
}

// Logistic is an L2-regularized logistic-regression classifier trained by
// full-batch gradient descent on standardized features.
type Logistic struct {
	// W and B are the weights and bias in *standardized* feature space.
	W []float64
	B float64
	// scaler maps raw inputs into the space W operates in.
	scaler *Scaler
}

// TrainLogistic fits a logistic-regression model on (X, y).
func TrainLogistic(X [][]float64, y []bool, cfg LogisticConfig) (*Logistic, error) {
	dim, err := checkTrainingData(X, y)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	scaler := cfg.Scaler
	if scaler == nil {
		if scaler, err = FitScaler(X); err != nil {
			return nil, err
		}
	}
	if len(scaler.Mean) != dim {
		return nil, fmt.Errorf("mlmodel: scaler dim %d, data dim %d", len(scaler.Mean), dim)
	}
	Z := make([][]float64, len(X))
	for i, row := range X {
		Z[i] = scaler.Transform(row)
	}
	targets := make([]float64, len(y))
	for i, v := range y {
		if v {
			targets[i] = 1
		}
	}

	m := &Logistic{W: make([]float64, dim), scaler: scaler}
	n := float64(len(Z))
	gradW := make([]float64, dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for j := range gradW {
			gradW[j] = 0
		}
		gradB := 0.0
		for i, z := range Z {
			p := sigmoid(dot(m.W, z) + m.B)
			e := p - targets[i]
			for j, v := range z {
				gradW[j] += e * v
			}
			gradB += e
		}
		for j := range m.W {
			m.W[j] -= cfg.LearningRate * (gradW[j]/n + cfg.L2*m.W[j])
		}
		m.B -= cfg.LearningRate * gradB / n
	}
	return m, nil
}

// NewLogisticFromWeights builds a model directly from standardized-space
// weights, used by the parameter-trajectory future-model generator.
func NewLogisticFromWeights(w []float64, b float64, scaler *Scaler) (*Logistic, error) {
	if scaler == nil {
		return nil, fmt.Errorf("mlmodel: nil scaler")
	}
	if len(w) != len(scaler.Mean) {
		return nil, fmt.Errorf("mlmodel: weight dim %d, scaler dim %d", len(w), len(scaler.Mean))
	}
	cp := make([]float64, len(w))
	copy(cp, w)
	return &Logistic{W: cp, B: b, scaler: scaler}, nil
}

// Predict returns sigmoid(w·z + b) for the standardized input z. Each
// coordinate is standardized as Scaler.Transform does and summed in the
// order dot sums, without materializing z, so Predict allocates nothing
// and matches PredictBatch bit for bit.
func (m *Logistic) Predict(x []float64) float64 {
	if len(x) != len(m.W) {
		panic(fmt.Sprintf("mlmodel: logistic input dim %d, want %d", len(x), len(m.W)))
	}
	mean, std := m.scaler.Mean, m.scaler.Std
	var s float64
	for j, v := range x {
		s += m.W[j] * ((v - mean[j]) / std[j])
	}
	return sigmoid(s + m.B)
}

// PredictBatch implements BatchModel.
func (m *Logistic) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	m.PredictBatchInto(out, X)
	return out
}

// PredictBatchInto writes Predict(X[i]) to dst[i] for every row.
func (m *Logistic) PredictBatchInto(dst []float64, X [][]float64) {
	for i, x := range X {
		dst[i] = m.Predict(x)
	}
}

// Name implements Model.
func (m *Logistic) Name() string { return "logistic" }

// Scaler exposes the shared scaler for trajectory extrapolation.
func (m *Logistic) Scaler() *Scaler { return m.scaler }

// Gradient returns d Predict / d x at x in *raw* feature space. The candidate
// generator uses it as the model-dependent move direction for logistic
// models.
func (m *Logistic) Gradient(x []float64) []float64 {
	p := m.Predict(x)
	g := make([]float64, len(m.W))
	for j := range g {
		// chain rule through standardization: dz_j/dx_j = 1/std_j
		g[j] = p * (1 - p) * m.W[j] / m.scaler.Std[j]
	}
	return g
}

func sigmoid(v float64) float64 {
	if v >= 0 {
		e := math.Exp(-v)
		return 1 / (1 + e)
	}
	e := math.Exp(v)
	return e / (1 + e)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
