package mlmodel

import (
	"math"
	"math/rand"
	"testing"
)

// randomRows draws n rows uniformly from the box the training data lives in.
func randomRows(rng *rand.Rand, n, dim int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for j := range X[i] {
			X[i][j] = rng.Float64()*20 - 10
		}
	}
	return X
}

// assertBatchMatches checks PredictBatch against per-row Predict within tol
// (tol 0 demands bit-identical results), and PredictBatchInto against
// PredictBatch bit for bit, writing over a buffer full of stale values.
func assertBatchMatches(t *testing.T, m Model, X [][]float64, tol float64) {
	t.Helper()
	got := PredictBatch(m, X)
	if len(got) != len(X) {
		t.Fatalf("PredictBatch returned %d results for %d rows", len(got), len(X))
	}
	for i, x := range X {
		want := m.Predict(x)
		if diff := math.Abs(got[i] - want); diff > tol {
			t.Fatalf("row %d: PredictBatch=%v Predict=%v (|diff|=%g > %g)", i, got[i], want, diff, tol)
		}
	}
	into := make([]float64, len(X))
	for i := range into {
		into[i] = 0.25
	}
	PredictBatchInto(m, into, X)
	for i := range got {
		if math.Float64bits(into[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: PredictBatchInto=%v PredictBatch=%v", i, into[i], got[i])
		}
	}
}

func trainedBatchData(t *testing.T, seed int64) ([][]float64, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X := randomRows(rng, 400, 5)
	y := make([]bool, len(X))
	for i, x := range X {
		y[i] = x[0]+0.5*x[1]-x[3] > 0
	}
	return X, y
}

func TestTreePredictBatchMatchesPredict(t *testing.T) {
	X, y := trainedBatchData(t, 1)
	tree, err := TrainTree(X, y, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatches(t, tree, randomRows(rand.New(rand.NewSource(2)), 300, 5), 0)
}

func TestForestPredictBatchMatchesPredict(t *testing.T) {
	X, y := trainedBatchData(t, 3)
	forest, err := TrainForest(X, y, ForestConfig{Trees: 20, MaxDepth: 7, MinLeaf: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatches(t, forest, randomRows(rand.New(rand.NewSource(4)), 300, 5), 0)
}

func TestForestPredictBatchShardedMatchesPredict(t *testing.T) {
	X, y := trainedBatchData(t, 5)
	forest, err := TrainForest(X, y, ForestConfig{Trees: 10, MaxDepth: 6, MinLeaf: 3, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that PredictBatch fans out across the 4 workers.
	assertBatchMatches(t, forest, randomRows(rand.New(rand.NewSource(6)), 4*batchShardMin, 5), 0)
}

func TestLogisticPredictBatchMatchesPredict(t *testing.T) {
	X, y := trainedBatchData(t, 8)
	m, err := TrainLogistic(X, y, DefaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatches(t, m, randomRows(rand.New(rand.NewSource(9)), 300, 5), 0)
	x := randomRows(rand.New(rand.NewSource(10)), 1, 5)[0]
	if allocs := testing.AllocsPerRun(20, func() { m.Predict(x) }); allocs != 0 {
		t.Fatalf("Logistic.Predict allocates %.0f times per call", allocs)
	}
}

func TestMappedPredictBatchMatchesPredict(t *testing.T) {
	X, y := trainedBatchData(t, 10)
	inner, err := TrainLogistic(X, y, DefaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := Mapped{Inner: inner, Map: func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = v * 1.5
		}
		return out
	}}
	assertBatchMatches(t, m, randomRows(rand.New(rand.NewSource(11)), 200, 5), 1e-12)
}

func TestConstantPredictBatchMatchesPredict(t *testing.T) {
	assertBatchMatches(t, ConstantModel{P: 0.37}, randomRows(rand.New(rand.NewSource(12)), 50, 3), 0)
}

// plainModel deliberately does not implement BatchModel, exercising the
// per-row fallback of the package-level PredictBatch helper.
type plainModel struct{}

func (plainModel) Predict(x []float64) float64 { return sigmoid(x[0]) }
func (plainModel) Name() string                { return "plain" }

func TestPredictBatchFallbackForNonBatchModels(t *testing.T) {
	assertBatchMatches(t, plainModel{}, randomRows(rand.New(rand.NewSource(13)), 50, 2), 0)
}

// batchOnlyModel implements PredictBatch but not PredictBatchInto, as a
// decorator that counts model work does, and counts its batch calls.
type batchOnlyModel struct {
	Model
	calls, rows int
}

func (m *batchOnlyModel) PredictBatch(X [][]float64) []float64 {
	m.calls++
	m.rows += len(X)
	return PredictBatch(m.Model, X)
}

// TestPredictBatchIntoFallsBackToPredictBatch requires PredictBatchInto to
// score a model without a native into-path through its PredictBatch, once
// per call with every row.
func TestPredictBatchIntoFallsBackToPredictBatch(t *testing.T) {
	X, y := trainedBatchData(t, 17)
	forest, err := TrainForest(X, y, ForestConfig{Trees: 5, MaxDepth: 5, MinLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := &batchOnlyModel{Model: forest}
	rows := randomRows(rand.New(rand.NewSource(18)), 40, 5)
	assertBatchMatches(t, m, rows, 0)
	if m.calls != 2 || m.rows != 2*len(rows) {
		t.Fatalf("PredictBatch saw %d calls and %d rows, want 2 and %d", m.calls, m.rows, 2*len(rows))
	}
}

func TestPredictBatchEmptyInput(t *testing.T) {
	X, y := trainedBatchData(t, 14)
	forest, err := TrainForest(X, y, ForestConfig{Trees: 5, MaxDepth: 5, MinLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := forest.PredictBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// pointerNode is a classic pointer-linked tree node, rebuilt from the flat
// structure-of-arrays layout to cross-check the flattened traversal.
type pointerNode struct {
	feature     int
	threshold   float64
	left, right *pointerNode
	prob        float64
}

func toPointerTree(t *Tree, i int32) *pointerNode {
	n := &pointerNode{prob: t.prob[i]}
	if t.left[i] != -1 {
		n.feature = int(t.feature[i])
		n.threshold = t.threshold[i]
		n.left = toPointerTree(t, t.left[i])
		n.right = toPointerTree(t, t.right[i])
	}
	return n
}

func (n *pointerNode) predict(x []float64) float64 {
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

func TestFlatTreeMatchesPointerTraversal(t *testing.T) {
	X, y := trainedBatchData(t, 15)
	tree, err := TrainTree(X, y, TreeConfig{MaxDepth: 9, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NodeCount() < 3 {
		t.Fatalf("degenerate tree (%d nodes) cannot exercise traversal", tree.NodeCount())
	}
	root := toPointerTree(tree, 0)
	probe := randomRows(rand.New(rand.NewSource(16)), 500, 5)
	batch := tree.PredictBatch(probe)
	for i, x := range probe {
		want := root.predict(x)
		if tree.Predict(x) != want {
			t.Fatalf("row %d: flat Predict=%v pointer traversal=%v", i, tree.Predict(x), want)
		}
		if batch[i] != want {
			t.Fatalf("row %d: flat PredictBatch=%v pointer traversal=%v", i, batch[i], want)
		}
	}
}
