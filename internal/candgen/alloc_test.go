package candgen

import (
	"runtime"
	"testing"

	"justintime/internal/mlmodel"
)

// TestGenerateAllocations bounds the heap allocations and the bytes
// allocated by one search on fixed 2-D problems. Pool entries, keys and
// vectors live in fixed-size chunks and every hot path (keys, constraint
// contexts, moves, shrink midpoints, top-K) reuses scratch space, so what
// remains is mostly the per-iteration model outputs (batch scores, and the
// logistic gradient) plus a few chunks. The budgets are the measured counts
// and bytes on go1.24/amd64 (562 and 384 allocations, 739 and 1100 KiB)
// plus ~10%. A per-entry allocation costs thousands more allocations, and
// an arena that grows by doubling copies and strands its old arrays, which
// shows in the bytes.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	schema := twoDSchema(t)
	cases := []struct {
		name            string
		model           mlmodel.Model
		input           []float64
		allocs, kibytes float64
	}{
		{"logistic", trainedLogistic(t), []float64{20, 40}, 620, 820},
		{"forest", trainedForest(t), []float64{30, 30}, 420, 1210},
	}
	for _, c := range cases {
		p := Problem{Schema: schema, Model: c.model, Threshold: 0.5, Input: c.input}
		run := func() {
			if _, _, err := Generate(p, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(5, run)
		kib := allocatedKiB(5, run)
		t.Logf("%s: %.0f allocs, %.1f KiB per Generate", c.name, got, kib)
		if got > c.allocs {
			t.Errorf("%s: %.0f allocs per Generate, budget %.0f", c.name, got, c.allocs)
		}
		if kib > c.kibytes {
			t.Errorf("%s: %.1f KiB allocated per Generate, budget %.0f", c.name, kib, c.kibytes)
		}
	}
}

// allocatedKiB returns the mean KiB that f allocates over runs calls, after
// one warm-up call, read from runtime.MemStats.TotalAlloc.
func allocatedKiB(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs) / 1024
}
