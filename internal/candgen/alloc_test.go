package candgen

import (
	"context"
	"runtime"
	"testing"

	"justintime/internal/mlmodel"
)

// TestGenerateAllocations bounds the heap allocations and the bytes
// allocated by one search on fixed 2-D problems, fresh and on a warm
// Searcher. Pool entries, keys and vectors live in fixed-size chunks and
// every hot path (keys, constraint contexts, moves, shrink midpoints,
// top-K) reuses scratch space, so a fresh search allocates mostly its
// chunks and buffers, plus the logistic gradients. Batch scores land in the
// search's own buffer and the forest's split thresholds are built once at
// training. A warm Searcher already holds the chunks and buffers from its
// previous search, so it allocates the gradients, the per-search schema
// and constraint set-up and the returned candidates. The budgets are the
// measured counts and bytes on go1.24/amd64 plus ~10%: fresh 266 and 189
// allocations, 488 (budget 530, 9% above) and 694 KiB; warm 134 and 36
// allocations, 2.7 and 1.6 KiB. The logistic gradient allocates only its
// result, once per beam state. A per-entry allocation costs thousands
// more allocations, an arena that grows by doubling copies and strands its
// old arrays, scratch a warm Searcher rebuilds costs the fresh bytes, and a
// per-call model output or threshold map costs the warm search tens of KiB.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	schema := twoDSchema(t)
	type budget struct{ allocs, kibytes float64 }
	cases := []struct {
		name        string
		model       mlmodel.Model
		input       []float64
		fresh, warm budget
	}{
		{"logistic", trainedLogistic(t), []float64{20, 40}, budget{293, 530}, budget{148, 3}},
		{"forest", trainedForest(t), []float64{30, 30}, budget{208, 763}, budget{40, 2}},
	}
	check := func(name string, b budget, run func()) {
		got := testing.AllocsPerRun(5, run)
		kib := allocatedKiB(5, run)
		t.Logf("%s: %.0f allocs, %.1f KiB per search", name, got, kib)
		if got > b.allocs {
			t.Errorf("%s: %.0f allocs per search, budget %.0f", name, got, b.allocs)
		}
		if kib > b.kibytes {
			t.Errorf("%s: %.1f KiB allocated per search, budget %.0f", name, kib, b.kibytes)
		}
	}
	for _, c := range cases {
		p := Problem{Schema: schema, Model: c.model, Threshold: 0.5, Input: c.input}
		check(c.name, c.fresh, func() {
			if _, _, err := Generate(p, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		// Both measurements run a warm-up call first, so every measured
		// search finds the Searcher's scratch already sized.
		var sr Searcher
		check(c.name+" warm Searcher", c.warm, func() {
			if _, _, err := sr.Generate(context.Background(), p, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
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
