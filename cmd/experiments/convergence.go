package main

import (
	"fmt"
	"sort"

	"justintime"
	"justintime/internal/candgen"
	"justintime/internal/drift"
	"justintime/internal/mlmodel"
)

// runE5 measures the candidate search's convergence behaviour over a batch
// of rejected applicants, for both model families, checking the paper's
// claim that "the algorithm converges after a small number of iterations".
func runE5(quick bool) error {
	n := 100
	if quick {
		n = 25
	}
	demo, err := demoSystem(quick, "last")
	if err != nil {
		return err
	}
	sys := demo.System
	history := demo.History

	// A logistic model over the same data, for the model-family contrast.
	logitModels, err := (drift.Last{Trainer: drift.LogisticTrainer(mlmodel.DefaultLogisticConfig())}).Generate(history, 0)
	if err != nil {
		return err
	}

	type family struct {
		name  string
		model justintime.TimedModel
	}
	families := []family{
		{"forest", sys.Models()[0]},
		{"logistic", logitModels[0]},
	}

	fmt.Printf("%-10s %-10s %-12s %-14s %-12s %-10s\n",
		"model", "solved", "iters p50", "iters p95", "evals p50", "converged")
	for _, fam := range families {
		profiles := rejectedFromData(demo, fam.model, n)
		var iters, evals []int
		converged, solved := 0, 0
		for i, profile := range profiles {
			cands, stats, err := candgen.Generate(candgen.Problem{
				Schema:    sys.Schema(),
				Model:     fam.model.Model,
				Threshold: fam.model.Threshold,
				Input:     profile,
			}, candgen.Config{K: 8, BeamWidth: 16, MaxIters: 30, Patience: 3, DiversityPenalty: 0.5, ShrinkRounds: 12, Seed: int64(i)})
			if err != nil {
				return err
			}
			iters = append(iters, stats.Iterations)
			evals = append(evals, stats.Evaluations)
			if stats.Converged {
				converged++
			}
			if len(cands) > 0 {
				solved++
			}
		}
		if len(profiles) == 0 {
			fmt.Printf("%-10s no rejected applicants found\n", fam.name)
			continue
		}
		fmt.Printf("%-10s %3d/%-6d %-12d %-14d %-12d %d%%\n",
			fam.name, solved, len(profiles),
			percentile(iters, 50), percentile(iters, 95), percentile(evals, 50),
			100*converged/len(profiles))
	}
	fmt.Println("expected shape: median iterations in single digits, >90% converge before the cap")
	return nil
}

func percentile(xs []int, p int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}
