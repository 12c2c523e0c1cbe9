// Futuremodels studies the Models Generator in isolation: it trains every
// future-model method (EDD, KI, Last, Pooled and the Oracle upper bound) on
// the first eras of the drifting loan history and scores each method's
// horizon-t model on the era that actually materializes t years later.
//
// This is a runnable miniature of experiment E4 (go run ./cmd/experiments -e e4).
//
// Run with: go run ./examples/futuremodels
package main

import (
	"fmt"
	"log"

	"justintime"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/mlmodel"
)

func main() {
	const (
		trainEras = 8
		horizon   = 3
		rows      = 800
	)
	full, err := dataset.Generate(dataset.Config{
		Seed: 21, Eras: trainEras + horizon, RowsPerEra: rows, LabelNoise: 0.04, DriftScale: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	history := justintime.HistoryFromDataset(full)[:trainEras]
	evalData, err := dataset.Generate(dataset.Config{
		Seed: 99, Eras: trainEras + horizon, RowsPerEra: rows, LabelNoise: 0, DriftScale: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	forest := drift.ForestTrainer(mlmodel.ForestConfig{Trees: 25, MaxDepth: 8, MinLeaf: 3, Seed: 2})
	oracle := drift.Oracle{Trainer: forest, Future: func(t int) (drift.Era, error) {
		hist := justintime.HistoryFromDataset(full)
		return hist[trainEras-1+t], nil
	}}
	generators := []drift.Generator{
		drift.Last{Trainer: forest},
		drift.Pooled{Trainer: forest},
		drift.KI{Degree: 1},
		drift.EDD{Trainer: forest, Seed: 2, MaxPerEra: 200},
		oracle,
	}

	fmt.Printf("accuracy of the predicted model M_t on the ACTUAL future era, per method:\n\n")
	fmt.Printf("%-8s", "method")
	for t := 1; t <= horizon; t++ {
		fmt.Printf("  t+%d  ", t)
	}
	fmt.Println()
	for _, g := range generators {
		models, err := g.Generate(history, horizon)
		if err != nil {
			log.Fatalf("%s: %v", g.Name(), err)
		}
		fmt.Printf("%-8s", g.Name())
		for t := 1; t <= horizon; t++ {
			era := evalData.Era(trainEras - 1 + t)
			X := make([][]float64, len(era))
			y := make([]bool, len(era))
			for i, ex := range era {
				X[i], y[i] = ex.X, ex.Label
			}
			fmt.Printf(" %.3f ", mlmodel.Accuracy(models[t].Model, X, y, models[t].Threshold))
		}
		fmt.Println()
	}
	fmt.Println("\nreading: 'last' decays with the horizon because the rule keeps drifting;")
	fmt.Println("'ki' extrapolates the parameter trajectories and tracks it; 'oracle' is the ceiling.")
}
