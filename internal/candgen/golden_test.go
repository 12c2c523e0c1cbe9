package candgen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"justintime/internal/constraints"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
)

// goldenDigest is the SHA-256 of Generate's full output over
// goldenMatrix with 12 shrink rounds.
// Any change to the search must leave it unchanged: the candidates, their
// order, every float bit and every Stats field are part of the digest.
const goldenDigest = "fd975df7dfb5e3f7e3690e9020e656024591d6a461a6ec00233144cbefa5d7a2"

// goldenDefaultDigest is the same digest at DefaultConfig's shrink round
// count, the search the pipeline runs.
const goldenDefaultDigest = "01a798182c117dc667276bbbefc1bdbac72e8ca9965b3dccd66dd588fa364409"

// hashOutput folds one Generate result into h: the candidate count, each
// candidate's X, Diff, Gap and Confidence bits, and every Stats field.
func hashOutput(h []byte, cands []Candidate, st Stats) []byte {
	u64 := func(v uint64) { h = binary.LittleEndian.AppendUint64(h, v) }
	i64 := func(v int) { u64(uint64(int64(v))) }
	i64(len(cands))
	for _, c := range cands {
		i64(len(c.X))
		for _, v := range c.X {
			u64(math.Float64bits(v))
		}
		u64(math.Float64bits(c.Diff))
		i64(c.Gap)
		u64(math.Float64bits(c.Confidence))
	}
	i64(st.Iterations)
	i64(st.FirstFeasibleIter)
	i64(st.Evaluations)
	if st.Converged {
		i64(1)
	} else {
		i64(0)
	}
	i64(st.PoolSize)
	return h
}

// goldenMatrix runs gen over forest and logistic models, continuous and
// integer-valued schemas of dimension 2 and 4, several inputs, no / user /
// domain constraint sets, λ ∈ {0, 0.5}, K ∈ {1, 8} and two seeds, all with
// the given shrink round count, and returns the SHA-256 of all outputs in
// order.
func goldenMatrix(t *testing.T, shrinkRounds int, gen func(Problem, Config) ([]Candidate, Stats, error)) string {
	t.Helper()
	mixed, err := feature.NewSchema(
		feature.Field{Name: "a", Kind: feature.Continuous, Min: 0, Max: 100},
		feature.Field{Name: "b", Kind: feature.Integer, Min: 0, Max: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	schemas := []*feature.Schema{twoDSchema(t), mixed}
	models := []mlmodel.Model{trainedForest(t), trainedLogistic(t)}
	inputs := [][]float64{{30, 30}, {20, 40}, {45, 10}, {80, 80}}
	user := constraints.NewSet(
		constraints.MustParse("a <= old(a) + 15"),
		constraints.MustParse("b >= old(b)"),
	)
	domain := constraints.NewSet(
		constraints.MustParse("gap <= 2"),
		constraints.MustParse("diff <= 60"),
		constraints.MustParse("confidence >= 0.55 OR a >= 90"),
	)
	domain.AddAt(constraints.MustParse("b <= 85"), 1)
	sets := []*constraints.Set{nil, user, domain}

	var buf []byte
	for si, schema := range schemas {
		for _, model := range models {
			for _, in := range inputs {
				for ci, set := range sets {
					for _, lambda := range []float64{0, 0.5} {
						for _, k := range []int{1, 8} {
							for _, seed := range []int64{1, 7} {
								cfg := DefaultConfig()
								cfg.ShrinkRounds = shrinkRounds
								cfg.K = k
								cfg.DiversityPenalty = lambda
								cfg.Seed = seed
								p := Problem{
									Schema: schema, Model: model, Threshold: 0.5,
									Input: in, Constraints: set, Time: (si + ci) % 2,
								}
								cands, st, err := gen(p, cfg)
								if err != nil {
									t.Fatal(err)
								}
								buf = hashOutput(buf, cands, st)
							}
						}
					}
				}
			}
		}
	}
	// A loan-shaped 4-D space: an immutable integer, two wide continuous
	// ranges and an ordinal, so keys and clamping see mixed kinds and scales.
	loan, err := feature.NewSchema(
		feature.Field{Name: "age", Kind: feature.Integer, Min: 18, Max: 80, Immutable: true},
		feature.Field{Name: "income", Kind: feature.Continuous, Min: 0, Max: 200000},
		feature.Field{Name: "debt", Kind: feature.Continuous, Min: 0, Max: 50000},
		feature.Field{Name: "household", Kind: feature.Ordinal, Min: 0, Max: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	X := make([][]float64, 1500)
	y := make([]bool, len(X))
	for i := range X {
		X[i] = []float64{
			18 + float64(rng.Intn(63)), rng.Float64() * 200000,
			rng.Float64() * 50000, float64(rng.Intn(4)),
		}
		y[i] = X[i][1]/2000-X[i][2]/500+X[i][0]/4-5*X[i][3] > 20
	}
	forest, err := mlmodel.TrainForest(X, y, mlmodel.ForestConfig{Trees: 15, MaxDepth: 7, MinLeaf: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	logit, err := mlmodel.TrainLogistic(X, y, mlmodel.DefaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	loanUser := constraints.NewSet(
		constraints.MustParse("income <= old(income) * 1.4"),
		constraints.MustParse("household >= old(household)"),
	)
	loanDomain := constraints.NewSet(constraints.MustParse("gap <= 2"), constraints.MustParse("debt >= 1000"))
	for _, model := range []mlmodel.Model{forest, logit} {
		for _, in := range [][]float64{{30, 40000, 20000, 2}, {55, 90000, 30000, 1}} {
			for _, set := range []*constraints.Set{nil, loanUser, loanDomain} {
				for _, lambda := range []float64{0, 0.5} {
					for _, k := range []int{1, 8} {
						cfg := DefaultConfig()
						cfg.ShrinkRounds = shrinkRounds
						cfg.K = k
						cfg.DiversityPenalty = lambda
						cands, st, err := gen(Problem{
							Schema: loan, Model: model, Threshold: 0.5, Input: in, Constraints: set,
						}, cfg)
						if err != nil {
							t.Fatal(err)
						}
						buf = hashOutput(buf, cands, st)
					}
				}
			}
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGoldenFingerprint pins Generate's output bit for bit, at 12 shrink
// rounds and at the default count. Each matrix runs twice: once with a
// fresh search per problem, and once through one Searcher shared by every
// problem of both matrices, so scratch kept from an earlier search (another
// dimension, K, λ, model or constraint set) must not change any output.
// The digests were captured on amd64; architectures whose compilers fuse
// multiply-adds may round differently and are skipped.
func TestGoldenFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned on amd64, running on %s", runtime.GOARCH)
	}
	var shared Searcher
	sharedGen := func(p Problem, cfg Config) ([]Candidate, Stats, error) {
		return shared.Generate(context.Background(), p, cfg)
	}
	for _, c := range []struct {
		rounds int
		want   string
	}{
		{12, goldenDigest},
		{DefaultConfig().ShrinkRounds, goldenDefaultDigest},
	} {
		if got := goldenMatrix(t, c.rounds, Generate); got != c.want {
			t.Errorf("Generate output at %d shrink rounds changed:\n got  %s\n want %s", c.rounds, got, c.want)
		}
		if got := goldenMatrix(t, c.rounds, sharedGen); got != c.want {
			t.Errorf("shared Searcher output at %d shrink rounds changed:\n got  %s\n want %s", c.rounds, got, c.want)
		}
	}
}

// TestConcurrentSearchersMatchFresh runs a mixed list of problems (both
// model kinds, several inputs, with and without constraints, K 1 and 8)
// on 4 goroutines, each with its own Searcher that starts from a cancelled
// search, and requires every output to equal a fresh search's. The
// goroutines share the models, schema and constraint sets, so the race
// detector also checks that a search only reads them.
func TestConcurrentSearchersMatchFresh(t *testing.T) {
	schema := twoDSchema(t)
	user := constraints.NewSet(constraints.MustParse("a <= old(a) + 15"))
	var problems []Problem
	var cfgs []Config
	for _, model := range []mlmodel.Model{trainedForest(t), trainedLogistic(t)} {
		for _, in := range [][]float64{{30, 30}, {20, 40}, {45, 10}} {
			for _, set := range []*constraints.Set{nil, user} {
				for _, k := range []int{1, 8} {
					cfg := DefaultConfig()
					cfg.K, cfg.Seed = k, int64(len(cfgs))
					problems = append(problems, Problem{Schema: schema, Model: model, Threshold: 0.5, Input: in, Constraints: set})
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	type output struct {
		cands []Candidate
		st    Stats
	}
	want := make([]output, len(problems))
	for i, p := range problems {
		cands, st, err := Generate(p, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = output{cands, st}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const workers = 4
	got := make([][]output, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sr Searcher
			if _, _, err := sr.Generate(cancelled, problems[w], cfgs[w]); err == nil {
				errs[w] = fmt.Errorf("a cancelled search returned no error")
				return
			}
			got[w] = make([]output, len(problems))
			for n := range problems {
				i := (n + w*len(problems)/workers) % len(problems) // each worker its own order
				cands, st, err := sr.Generate(context.Background(), problems[i], cfgs[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = output{cands, st}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range want {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("worker %d, problem %d: Searcher output %+v, fresh %+v", w, i, got[w][i], want[i])
			}
		}
	}
}
