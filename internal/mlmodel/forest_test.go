package mlmodel

import (
	"reflect"
	"sort"
	"testing"
)

func TestTrainForestValidation(t *testing.T) {
	X, y := linearData(20, 1)
	if _, err := TrainForest(X, y, ForestConfig{Trees: 0, MaxDepth: 3, MinLeaf: 1}); err == nil {
		t.Error("Trees=0 should fail")
	}
	if _, err := TrainForest(X, y, ForestConfig{Trees: 2, MaxDepth: 3, MinLeaf: 1, Workers: -1}); err == nil {
		t.Error("Workers=-1 should fail")
	}
	if _, err := TrainForest(nil, nil, DefaultForestConfig()); err == nil {
		t.Error("empty data should fail")
	}
}

func TestForestLearnsXOR(t *testing.T) {
	X, y := xorData(1000, 10)
	trainX, trainY := X[:800], y[:800]
	testX, testY := X[800:], y[800:]
	f, err := TrainForest(trainX, trainY, ForestConfig{Trees: 30, MaxDepth: 6, MinLeaf: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(f, testX, testY, 0.5); acc < 0.9 {
		t.Errorf("forest test accuracy %.3f on XOR, want >= 0.9", acc)
	}
	if auc := ModelAUC(f, testX, testY); auc < 0.95 {
		t.Errorf("forest AUC %.3f, want >= 0.95", auc)
	}
}

func TestForestDeterministicAcrossWorkerCounts(t *testing.T) {
	X, y := xorData(400, 11)
	pred := func(workers int) []float64 {
		f, err := TrainForest(X, y, ForestConfig{Trees: 12, MaxDepth: 5, MinLeaf: 2, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 20)
		for i := range out {
			out[i] = f.Predict([]float64{float64(i) / 20, float64(i%3) / 3})
		}
		return out
	}
	a, b := pred(1), pred(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs across worker counts: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestForestThresholdsSortedDeduped(t *testing.T) {
	X, y := xorData(500, 12)
	f, err := TrainForest(X, y, ForestConfig{Trees: 15, MaxDepth: 5, MinLeaf: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	thr := f.Thresholds()
	if len(thr) == 0 {
		t.Fatal("no thresholds collected")
	}
	for feat, vs := range thr {
		for i := 1; i < len(vs); i++ {
			if vs[i] <= vs[i-1] {
				t.Fatalf("feature %d thresholds not strictly increasing: %v", feat, vs)
			}
		}
	}
	// Every split of every tree is in the map, and the map is the one built
	// at training: later calls return it again.
	for _, tree := range f.trees {
		for feat, vs := range tree.Thresholds(nil) {
			for _, v := range vs {
				if i := sort.SearchFloat64s(thr[feat], v); i == len(thr[feat]) || thr[feat][i] != v {
					t.Fatalf("feature %d split %g missing from %v", feat, v, thr[feat])
				}
			}
		}
	}
	if reflect.ValueOf(f.Thresholds()).Pointer() != reflect.ValueOf(thr).Pointer() {
		t.Fatal("Thresholds built a new map on a later call")
	}
}

func TestForestPredictionIsMeanOfTrees(t *testing.T) {
	X, y := linearData(300, 13)
	f, err := TrainForest(X, y, ForestConfig{Trees: 7, MaxDepth: 4, MinLeaf: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.9}
	var sum float64
	for _, tr := range f.trees {
		sum += tr.Predict(x)
	}
	if got, want := f.Predict(x), sum/7; got != want {
		t.Errorf("Predict = %g, want mean %g", got, want)
	}
	if f.TreeCount() != 7 || f.Dim() != 2 {
		t.Errorf("TreeCount=%d Dim=%d", f.TreeCount(), f.Dim())
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	// With label noise, bagging should not do worse than a deep single tree
	// on held-out data (the classic variance-reduction effect).
	X, y := xorData(1200, 14)
	for i := 0; i < len(y); i += 9 { // ~11% label noise
		y[i] = !y[i]
	}
	trainX, trainY := X[:900], y[:900]
	testX, testY := X[900:], y[900:]
	tree, err := TrainTree(trainX, trainY, TreeConfig{MaxDepth: 12, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(trainX, trainY, ForestConfig{Trees: 40, MaxDepth: 12, MinLeaf: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	accTree := Accuracy(tree, testX, testY, 0.5)
	accForest := Accuracy(forest, testX, testY, 0.5)
	if accForest+0.02 < accTree {
		t.Errorf("forest %.3f much worse than single tree %.3f", accForest, accTree)
	}
}
