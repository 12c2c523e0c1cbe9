package drift

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"justintime/internal/kernel"
	"justintime/internal/mlmodel"
)

// KI extrapolates classifier parameters over time in the style of Kumagai &
// Iwata (AAAI 2016): a logistic model is fitted to every past era with one
// shared feature scaler, each coefficient's trajectory across eras is fitted
// by polynomial least squares, and future models are read off the
// extrapolated trajectories.
type KI struct {
	// Degree of the trajectory polynomial (1 = linear trend, 2 =
	// quadratic). Values outside [0,3] are rejected; default 1.
	Degree int
	// Logistic configures the per-era fits; its Scaler field is
	// overwritten with the shared scaler.
	Logistic mlmodel.LogisticConfig
	// Features optionally transforms raw inputs into an engineered
	// feature space (e.g. appending debt-to-income ratios) before the
	// per-era logistic fits; the returned models apply it transparently.
	Features func(x []float64) []float64
	// FeaturesLabel names the transform in model names; optional.
	FeaturesLabel string
}

// Name implements Generator.
func (g KI) Name() string {
	if g.Features != nil {
		return "ki+feats"
	}
	return "ki"
}

// Generate implements Generator.
func (g KI) Generate(history []Era, horizon int) ([]TimedModel, error) {
	if err := checkHistory(history, horizon); err != nil {
		return nil, err
	}
	degree := g.Degree
	if degree == 0 {
		degree = 1
	}
	if degree < 0 || degree > 3 {
		return nil, fmt.Errorf("drift: KI degree %d outside [0,3]", degree)
	}
	H := len(history)
	if H < degree+2 {
		// Not enough eras to fit a meaningful trend: degrade to Last with
		// the same model family.
		cfg := g.logisticConfig()
		return Last{Trainer: LogisticTrainer(cfg)}.Generate(history, horizon)
	}

	// Optionally lift every era into the engineered feature space.
	mapX := func(rows [][]float64) [][]float64 {
		if g.Features == nil {
			return rows
		}
		out := make([][]float64, len(rows))
		for i, x := range rows {
			out[i] = g.Features(x)
		}
		return out
	}
	eraX := make([][][]float64, H)
	var pooled [][]float64
	for s, e := range history {
		eraX[s] = mapX(e.X)
		pooled = append(pooled, eraX[s]...)
	}
	scaler, err := mlmodel.FitScaler(pooled)
	if err != nil {
		return nil, fmt.Errorf("drift: ki scaler: %w", err)
	}
	cfg := g.logisticConfig()
	cfg.Scaler = scaler

	dim := len(pooled[0])
	// Coefficient trajectories: trajs[j][s] is weight j at era s; the bias
	// is stored at index dim.
	trajs := make([][]float64, dim+1)
	for j := range trajs {
		trajs[j] = make([]float64, H)
	}
	// The per-era fits are independent and each writes only its own era's
	// column of trajs, so they run on min(H, GOMAXPROCS) goroutines that
	// pull eras from a counter.
	errs := make([]error, H)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := min(H, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < H; s = int(next.Add(1)) - 1 {
				m, err := mlmodel.TrainLogistic(eraX[s], history[s].Y, cfg)
				if err != nil {
					errs[s] = err
					continue
				}
				for j := 0; j < dim; j++ {
					trajs[j][s] = m.W[j]
				}
				trajs[dim][s] = m.B
			}
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("drift: ki era %d: %w", s, err)
		}
	}

	// Fit one polynomial per coefficient over era index 0..H-1.
	polys := make([][]float64, dim+1)
	times := make([]float64, H)
	for s := range times {
		times[s] = float64(s)
	}
	for j := range trajs {
		p, err := PolyFit(times, trajs[j], degree)
		if err != nil {
			return nil, fmt.Errorf("drift: ki trajectory %d: %w", j, err)
		}
		polys[j] = p
	}

	last := history[H-1]
	out := make([]TimedModel, horizon+1)
	var delta float64
	for t := 0; t <= horizon; t++ {
		at := float64(H - 1 + t)
		w := make([]float64, dim)
		for j := 0; j < dim; j++ {
			w[j] = PolyEval(polys[j], at)
		}
		b := PolyEval(polys[dim], at)
		var m mlmodel.Model
		logit, err := mlmodel.NewLogisticFromWeights(w, b, scaler)
		if err != nil {
			return nil, err
		}
		m = logit
		if g.Features != nil {
			m = mlmodel.Mapped{Inner: logit, Map: g.Features, Label: g.FeaturesLabel}
		}
		if t == 0 {
			// Calibrate once, on the present model against the most
			// recent observed era — the only labeled data a deployed
			// system has. Re-calibrating every future model on *old*
			// data would drag the extrapolated boundary back to the
			// present, defeating the extrapolation; the probability
			// scale of the trajectory models is consistent, so delta_0
			// transfers.
			delta = mlmodel.CalibrateThreshold(m, last.X, last.Y)
		}
		out[t] = TimedModel{Model: m, Threshold: delta}
	}
	return out, nil
}

func (g KI) logisticConfig() mlmodel.LogisticConfig {
	cfg := g.Logistic
	if cfg.Epochs == 0 && cfg.LearningRate == 0 {
		cfg = mlmodel.DefaultLogisticConfig()
	}
	return cfg
}

// PolyFit fits coefficients p[0..degree] of p[0] + p[1]x + ... minimizing
// squared error, via the normal equations. It requires len(xs) >= degree+1.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("drift: polyfit input length mismatch")
	}
	if degree < 0 {
		return nil, fmt.Errorf("drift: negative polynomial degree")
	}
	n := degree + 1
	if len(xs) < n {
		return nil, fmt.Errorf("drift: polyfit needs %d points for degree %d, have %d", n, degree, len(xs))
	}
	// Normal equations: (V^T V) p = V^T y with Vandermonde V.
	a := kernel.NewMatrix(n, n)
	b := make([]float64, n)
	for i := range xs {
		pow := make([]float64, n)
		v := 1.0
		for j := 0; j < n; j++ {
			pow[j] = v
			v *= xs[i]
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				a.Add(r, c, pow[r]*pow[c])
			}
			b[r] += pow[r] * ys[i]
		}
	}
	return a.Solve(b)
}

// PolyEval evaluates the polynomial with coefficients p (constant first) at x
// using Horner's rule.
func PolyEval(p []float64, x float64) float64 {
	var v float64
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}
