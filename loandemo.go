package justintime

import (
	"fmt"

	"justintime/internal/candgen"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/mlmodel"
)

// LoanDemoConfig parameterizes NewLoanDemo, the batteries-included builder
// for the paper's loan-application demonstration scenario.
type LoanDemoConfig struct {
	// Seed drives data generation and model training.
	Seed int64
	// Eras and RowsPerEra size the synthetic Lending-Club-style history
	// (the paper uses 2007-2018, i.e. 12 yearly eras).
	Eras       int
	RowsPerEra int
	// T is the number of future time points; Delta is fixed at one year.
	T int
	// K is the number of candidates kept per time point.
	K int
	// Method selects the future-model generator: "edd", "ki", "last" or
	// "pooled".
	Method string
	// Workers bounds candidate-generator parallelism (0 = min(T+1,
	// GOMAXPROCS)).
	Workers int
	// DomainConstraints are administrator rules applied to every user
	// (constraint-language sources).
	DomainConstraints []string
}

// DefaultLoanDemoConfig mirrors the demonstration setup: 12 yearly eras,
// T=3 future points, top-8 candidates, drift-aware KI models, and one
// domain rule capping requested amounts relative to income.
func DefaultLoanDemoConfig() LoanDemoConfig {
	return LoanDemoConfig{
		Seed:       1,
		Eras:       12,
		RowsPerEra: 1200,
		T:          3,
		K:          8,
		Method:     "ki",
		DomainConstraints: []string{
			"amount <= income * 0.8", // bank policy: no loans above 80% of annual income
		},
	}
}

// LoanDemo bundles a ready-to-use System with the dataset it was trained on.
type LoanDemo struct {
	System  *System
	Dataset *dataset.Dataset
	History []Era
}

// NewLoanDemo generates the synthetic loan history, trains the model
// sequence and returns a configured system. It is the entry point used by
// the examples, the CLI and the demo server.
func NewLoanDemo(cfg LoanDemoConfig) (*LoanDemo, error) {
	if cfg.Eras <= 0 || cfg.RowsPerEra <= 0 {
		return nil, fmt.Errorf("justintime: LoanDemoConfig needs positive Eras and RowsPerEra")
	}
	if cfg.K <= 0 {
		cfg.K = 8
	}
	data, err := dataset.Generate(dataset.Config{
		Seed:       cfg.Seed,
		Eras:       cfg.Eras,
		RowsPerEra: cfg.RowsPerEra,
		LabelNoise: 0.04,
		DriftScale: 1,
	})
	if err != nil {
		return nil, err
	}
	history := HistoryFromDataset(data)

	gen, err := GeneratorByName(cfg.Method, cfg.Seed)
	if err != nil {
		return nil, err
	}
	domain := NewConstraintSet()
	for _, src := range cfg.DomainConstraints {
		c, err := ParseConstraint(src)
		if err != nil {
			return nil, fmt.Errorf("justintime: domain constraint %q: %w", src, err)
		}
		domain.Add(c)
	}
	cg := candgen.DefaultConfig()
	cg.K = cfg.K
	cg.Seed = cfg.Seed
	sys, err := NewSystem(Config{
		Schema:     dataset.LoanSchema(),
		T:          cfg.T,
		DeltaYears: 1,
		Generator:  gen,
		Domain:     domain,
		CandGen:    cg,
		Workers:    cfg.Workers,
		BaseYear:   dataset.BaseYear + cfg.Eras - 1,
	}, history)
	if err != nil {
		return nil, err
	}
	return &LoanDemo{System: sys, Dataset: data, History: history}, nil
}

// HistoryFromDataset converts a generated dataset into drift eras.
func HistoryFromDataset(d *dataset.Dataset) []Era {
	out := make([]Era, d.Eras())
	for e := 0; e < d.Eras(); e++ {
		for _, ex := range d.Era(e) {
			out[e].X = append(out[e].X, ex.X)
			out[e].Y = append(out[e].Y, ex.Label)
		}
	}
	return out
}

// OracleGenerator returns the experiment-only upper bound that trains each
// future model on the actual future era drawn from the same synthetic
// process (possible only because the drift is synthetic).
func OracleGenerator(seed int64, baseEras, rowsPerEra int) Generator {
	forest := drift.ForestTrainer(mlmodel.ForestConfig{Trees: 30, MaxDepth: 8, MinLeaf: 3, Seed: seed})
	return drift.Oracle{
		Trainer: forest,
		Future: func(t int) (Era, error) {
			d, err := dataset.Generate(dataset.Config{
				Seed:       seed,
				Eras:       baseEras + t,
				RowsPerEra: rowsPerEra,
				LabelNoise: 0.04,
				DriftScale: 1,
			})
			if err != nil {
				return Era{}, err
			}
			hist := HistoryFromDataset(d)
			return hist[len(hist)-1], nil
		},
	}
}
