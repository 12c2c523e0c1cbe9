package mlmodel

import (
	"fmt"
	"math/rand"
	"sort"
)

// TreeConfig controls CART training.
type TreeConfig struct {
	// MaxDepth bounds the tree depth; 0 means a single leaf, negative is
	// invalid. Typical values are 4-12.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (>= 1).
	MinLeaf int
	// MaxFeatures is the number of features considered at each split.
	// 0 means all features (plain CART); forests pass sqrt(d).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64
}

// DefaultTreeConfig returns a reasonable standalone-tree configuration.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 8, MinLeaf: 5}
}

func (c TreeConfig) validate(dim int) error {
	if c.MaxDepth < 0 {
		return fmt.Errorf("mlmodel: MaxDepth must be >= 0, got %d", c.MaxDepth)
	}
	if c.MinLeaf < 1 {
		return fmt.Errorf("mlmodel: MinLeaf must be >= 1, got %d", c.MinLeaf)
	}
	if c.MaxFeatures < 0 || c.MaxFeatures > dim {
		return fmt.Errorf("mlmodel: MaxFeatures must be in [0,%d], got %d", dim, c.MaxFeatures)
	}
	return nil
}

// Tree is a CART binary classification tree trained with Gini impurity.
//
// Nodes live in a flat structure-of-arrays layout: parallel slices indexed
// by node id, children referenced by int32 index (-1 marks a leaf) rather
// than pointer. Traversal touches only three contiguous arrays per step,
// which is what makes PredictBatch stream thousands of rows through the
// ensemble without pointer chasing.
type Tree struct {
	feature   []int32   // split feature index
	threshold []float64 // go left if x[feature] <= threshold
	left      []int32   // node index of left child, -1 for leaf
	right     []int32   // node index of right child
	prob      []float64 // leaf positive-class probability
	count     []int32   // training samples that reached the node
	dim       int
}

// push appends a leaf node and returns its index.
func (t *Tree) push(prob float64, n int) int {
	t.feature = append(t.feature, 0)
	t.threshold = append(t.threshold, 0)
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	t.prob = append(t.prob, prob)
	t.count = append(t.count, int32(n))
	return len(t.prob) - 1
}

// TrainTree grows a CART tree on (X, y).
func TrainTree(X [][]float64, y []bool, cfg TreeConfig) (*Tree, error) {
	dim, err := checkTrainingData(X, y)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(dim); err != nil {
		return nil, err
	}
	t := &Tree{dim: dim}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	b := treeBuilder{X: X, y: y, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), tree: t}
	b.grow(idx, 0)
	return t, nil
}

type treeBuilder struct {
	X    [][]float64
	y    []bool
	cfg  TreeConfig
	rng  *rand.Rand
	tree *Tree
}

// grow builds the subtree for the sample subset idx at the given depth and
// returns its arena index.
func (b *treeBuilder) grow(idx []int, depth int) int {
	pos := 0
	for _, i := range idx {
		if b.y[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	self := b.tree.push(prob, len(idx))

	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || pos == 0 || pos == len(idx) {
		return self
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return self
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.tree.feature[self] = int32(feat)
	b.tree.threshold[self] = thr
	b.tree.left[self] = int32(l)
	b.tree.right[self] = int32(r)
	return self
}

// bestSplit scans candidate features for the Gini-optimal threshold.
func (b *treeBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	dim := b.tree.dim
	features := make([]int, dim)
	for i := range features {
		features[i] = i
	}
	if k := b.cfg.MaxFeatures; k > 0 && k < dim {
		b.rng.Shuffle(dim, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:k]
	}

	bestGain := 1e-12 // require strictly positive gain
	type pair struct {
		v float64
		y bool
	}
	pairs := make([]pair, len(idx))
	totalPos := 0
	for _, i := range idx {
		if b.y[i] {
			totalPos++
		}
	}
	n := float64(len(idx))
	parentGini := giniFromCounts(float64(totalPos), n)

	for _, f := range features {
		for j, i := range idx {
			pairs[j] = pair{v: b.X[i][f], y: b.y[i]}
		}
		sort.Slice(pairs, func(a, c int) bool { return pairs[a].v < pairs[c].v })
		leftPos, leftN := 0.0, 0.0
		for j := 0; j < len(pairs)-1; j++ {
			if pairs[j].y {
				leftPos++
			}
			leftN++
			if pairs[j].v == pairs[j+1].v {
				continue // cannot split between equal values
			}
			rightN := n - leftN
			rightPos := float64(totalPos) - leftPos
			gain := parentGini -
				(leftN/n)*giniFromCounts(leftPos, leftN) -
				(rightN/n)*giniFromCounts(rightPos, rightN)
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (pairs[j].v + pairs[j+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func giniFromCounts(pos, n float64) float64 {
	if n == 0 {
		return 0
	}
	p := pos / n
	return 2 * p * (1 - p)
}

// Predict returns the positive-class probability of the leaf x falls into.
func (t *Tree) Predict(x []float64) float64 {
	if len(x) != t.dim {
		panic(fmt.Sprintf("mlmodel: tree input dim %d, want %d", len(x), t.dim))
	}
	i := int32(0)
	for t.left[i] != -1 {
		if x[t.feature[i]] <= t.threshold[i] {
			i = t.left[i]
		} else {
			i = t.right[i]
		}
	}
	return t.prob[i]
}

// PredictBatch implements BatchModel: one flat-array traversal per row.
func (t *Tree) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	t.predictBatchInto(X, out, false)
	return out
}

// predictBatchInto writes (add=false) or accumulates (add=true) the leaf
// probability of every row into out. Forests accumulate per-tree sums in
// place, in the caller's output.
func (t *Tree) predictBatchInto(X [][]float64, out []float64, add bool) {
	feature, threshold, left, right, prob := t.feature, t.threshold, t.left, t.right, t.prob
	for r, x := range X {
		if len(x) != t.dim {
			panic(fmt.Sprintf("mlmodel: tree input dim %d, want %d", len(x), t.dim))
		}
		i := int32(0)
		for left[i] != -1 {
			if x[feature[i]] <= threshold[i] {
				i = left[i]
			} else {
				i = right[i]
			}
		}
		if add {
			out[r] += prob[i]
		} else {
			out[r] = prob[i]
		}
	}
}

// Name implements Model.
func (t *Tree) Name() string { return "cart" }

// Dim returns the input dimensionality the tree was trained on.
func (t *Tree) Dim() int { return t.dim }

// NodeCount returns the total number of nodes (internal + leaves).
func (t *Tree) NodeCount() int { return len(t.prob) }

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int {
	var depth func(i int32) int
	depth = func(i int32) int {
		if t.left[i] == -1 {
			return 0
		}
		l, r := depth(t.left[i]), depth(t.right[i])
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.prob) == 0 {
		return 0
	}
	return depth(0)
}

// Thresholds appends each feature's split thresholds to dst (which may be
// nil) and returns it. The candidate generator uses these as the
// model-dependent move set: crossing a split threshold is the minimal move
// that can change a tree's decision.
func (t *Tree) Thresholds(dst map[int][]float64) map[int][]float64 {
	if dst == nil {
		dst = make(map[int][]float64)
	}
	for i, l := range t.left {
		if l != -1 {
			f := int(t.feature[i])
			dst[f] = append(dst[f], t.threshold[i])
		}
	}
	return dst
}
