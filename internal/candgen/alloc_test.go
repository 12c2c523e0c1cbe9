package candgen

import (
	"testing"

	"justintime/internal/mlmodel"
)

// TestGenerateAllocations bounds the heap allocations of one search on
// fixed 2-D problems. The hot paths (keys, constraint contexts, moves,
// shrink midpoints, top-K) reuse scratch space, so what remains is roughly
// one key string per distinct pool entry and beam state plus arena chunks.
// The budgets are the measured counts (5762 and 7424 on go1.24/amd64)
// plus ~10% for runtime map-growth differences. Allocating per move or per
// feasible point costs tens of thousands more (~67.5k and ~121k), so a
// budget that fails means a hot path allocates again.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	schema := twoDSchema(t)
	cases := []struct {
		name  string
		model mlmodel.Model
		input []float64
		max   float64
	}{
		{"logistic", trainedLogistic(t), []float64{20, 40}, 6400},
		{"forest", trainedForest(t), []float64{30, 30}, 8200},
	}
	for _, c := range cases {
		p := Problem{Schema: schema, Model: c.model, Threshold: 0.5, Input: c.input}
		got := testing.AllocsPerRun(5, func() {
			if _, _, err := Generate(p, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per Generate", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs per Generate, budget %.0f", c.name, got, c.max)
		}
	}
}
