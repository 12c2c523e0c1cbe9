package mlmodel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (>= 1).
	Trees int
	// MaxDepth and MinLeaf are per-tree CART parameters.
	MaxDepth int
	MinLeaf  int
	// MaxFeatures is the per-split feature sample size; 0 selects
	// round(sqrt(d)), the standard random-forest default.
	MaxFeatures int
	// Seed drives bootstrap sampling and per-tree feature sampling.
	Seed int64
	// Workers bounds training parallelism; 0 selects GOMAXPROCS.
	Workers int
}

// DefaultForestConfig mirrors common random-forest defaults at a size that
// trains quickly on the synthetic loan data.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 40, MaxDepth: 8, MinLeaf: 5}
}

func (c ForestConfig) validate(dim int) error {
	if c.Trees < 1 {
		return fmt.Errorf("mlmodel: Trees must be >= 1, got %d", c.Trees)
	}
	if c.Workers < 0 {
		return fmt.Errorf("mlmodel: Workers must be >= 0, got %d", c.Workers)
	}
	tc := TreeConfig{MaxDepth: c.MaxDepth, MinLeaf: c.MinLeaf, MaxFeatures: c.MaxFeatures}
	return tc.validate(dim)
}

// Forest is a bagged ensemble of CART trees with per-split feature
// subsampling — the model family the paper's Models Generator trains for each
// future time span.
type Forest struct {
	trees []*Tree
	dim   int
	// workers is the resolved ForestConfig.Workers, reused by PredictBatch
	// to shard large batches across goroutines.
	workers int
	// thresholds is what Thresholds returns, built once by TrainForest.
	thresholds map[int][]float64
}

// TrainForest fits a random forest on (X, y). Trees are trained in parallel
// on bootstrap resamples; the result is deterministic for a fixed seed
// regardless of worker count.
func TrainForest(X [][]float64, y []bool, cfg ForestConfig) (*Forest, error) {
	dim, err := checkTrainingData(X, y)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(dim); err != nil {
		return nil, err
	}
	maxFeatures := cfg.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = int(math.Round(math.Sqrt(float64(dim))))
		if maxFeatures < 1 {
			maxFeatures = 1
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Pre-derive an independent seed per tree so that parallel scheduling
	// cannot change the outcome.
	seeds := make([]int64, cfg.Trees)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	f := &Forest{trees: make([]*Tree, cfg.Trees), dim: dim, workers: workers}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, workers)
	for i := 0; i < cfg.Trees; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seeds[i]))
			bx := make([][]float64, len(X))
			by := make([]bool, len(y))
			for j := range bx {
				k := rng.Intn(len(X))
				bx[j] = X[k]
				by[j] = y[k]
			}
			tree, err := TrainTree(bx, by, TreeConfig{
				MaxDepth:    cfg.MaxDepth,
				MinLeaf:     cfg.MinLeaf,
				MaxFeatures: maxFeatures,
				Seed:        seeds[i] ^ 0x5851f42d4c957f2d,
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			f.trees[i] = tree
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	f.thresholds = make(map[int][]float64)
	for _, t := range f.trees {
		t.Thresholds(f.thresholds)
	}
	for k, vs := range f.thresholds {
		sort.Float64s(vs)
		out := vs[:0]
		for i, v := range vs {
			if i == 0 || v != vs[i-1] {
				out = append(out, v)
			}
		}
		f.thresholds[k] = out
	}
	return f, nil
}

// Predict returns the mean leaf probability across the ensemble.
func (f *Forest) Predict(x []float64) float64 {
	var sum float64
	for _, t := range f.trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.trees))
}

// batchShardMin is the minimum number of rows a goroutine shard must get
// before PredictBatch fans out; below that the spawn cost dominates.
const batchShardMin = 256

// PredictBatch implements BatchModel.
func (f *Forest) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	f.PredictBatchInto(out, X)
	return out
}

// PredictBatchInto writes Predict(X[i]) to dst[i] for every row:
// trees-outer, rows-inner over each tree's flattened node layout, so every
// tree's node arrays stay hot in cache for the whole batch. Large batches
// are sharded by row across the forest's configured workers. Results are
// bit-identical to per-row Predict: each row sums its leaf probabilities in
// ensemble order.
func (f *Forest) PredictBatchInto(dst []float64, X [][]float64) {
	out := dst[:len(X)]
	shards := f.workers
	if max := len(X) / batchShardMin; shards > max {
		shards = max
	}
	if shards <= 1 {
		f.predictRange(X, out)
		return
	}
	chunk := (len(X) + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := 0; lo < len(X); lo += chunk {
		hi := lo + chunk
		if hi > len(X) {
			hi = len(X)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f.predictRange(X[lo:hi], out[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// predictRange sums every tree's leaf probabilities into out, from zero and
// in ensemble order as Predict does, and normalizes by the ensemble size.
func (f *Forest) predictRange(X [][]float64, out []float64) {
	clear(out)
	for _, t := range f.trees {
		t.predictBatchInto(X, out, true)
	}
	n := float64(len(f.trees))
	for i := range out {
		out[i] /= n
	}
}

// Name implements Model.
func (f *Forest) Name() string { return fmt.Sprintf("forest(%d)", len(f.trees)) }

// Dim returns the input dimensionality.
func (f *Forest) Dim() int { return f.dim }

// TreeCount returns the ensemble size.
func (f *Forest) TreeCount() int { return len(f.trees) }

// Thresholds returns, per feature, the sorted deduplicated split thresholds
// used anywhere in the ensemble. The candidate generator's model-dependent
// heuristic proposes moves that cross these values. The map is built once
// at training and every call returns the same one: it is read-only, and a
// caller must not modify the map or its slices.
func (f *Forest) Thresholds() map[int][]float64 { return f.thresholds }
