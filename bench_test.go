// Benchmarks regenerating the performance-shaped experiments of DESIGN.md
// (one benchmark per experiment artifact; see EXPERIMENTS.md for recorded
// results and cmd/experiments for the table-printing harness).
package justintime

import (
	"fmt"
	"sync"
	"testing"

	"justintime/internal/candgen"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/mlmodel"
	"justintime/internal/sqldb"
)

// benchEnv lazily builds the shared system + session used by the query and
// pipeline benchmarks, so `go test -bench=Q1` does not pay for unrelated
// setup more than once.
type benchEnv struct {
	once sync.Once
	demo *LoanDemo
	sess *Session
	err  error
}

var env benchEnv

func (e *benchEnv) get(b *testing.B) (*LoanDemo, *Session) {
	b.Helper()
	e.once.Do(func() {
		cfg := DefaultLoanDemoConfig()
		cfg.Eras = 6
		cfg.RowsPerEra = 500
		cfg.T = 3
		e.demo, e.err = NewLoanDemo(cfg)
		if e.err != nil {
			return
		}
		prefs := NewConstraintSet(MustParseConstraint("income <= old(income) * 1.4"))
		e.sess, e.err = e.demo.System.NewSession(RejectedProfiles()[0], prefs)
	})
	if e.err != nil {
		b.Fatal(e.err)
	}
	return e.demo, e.sess
}

// --- E1 (Fig. 1): end-to-end candidate generation pipeline per applicant.

func BenchmarkEndToEndPipeline(b *testing.B) {
	demo, _ := env.get(b)
	profiles := RejectedProfiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := demo.System.NewSession(profiles[i%len(profiles)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 (Fig. 2): the six canned queries.

func benchQuestion(b *testing.B, q Question) {
	_, sess := env.get(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Ask(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryQ1NoModification(b *testing.B) {
	benchQuestion(b, Question{Kind: QNoModification})
}

func BenchmarkQueryQ2MinimalFeatures(b *testing.B) {
	benchQuestion(b, Question{Kind: QMinimalFeatures})
}

func BenchmarkQueryQ3DominantFeature(b *testing.B) {
	benchQuestion(b, Question{Kind: QDominantFeature, Feature: "income"})
}

func BenchmarkQueryQ4MinimalOverall(b *testing.B) {
	benchQuestion(b, Question{Kind: QMinimalOverall})
}

func BenchmarkQueryQ5MaximalConfidence(b *testing.B) {
	benchQuestion(b, Question{Kind: QMaximalConfidence})
}

func BenchmarkQueryQ6TurningPoint(b *testing.B) {
	benchQuestion(b, Question{Kind: QTurningPoint, Alpha: 0.7})
}

// --- E3 (Fig. 3): the full three-screen user journey.

func BenchmarkDemoJourney(b *testing.B) {
	demo, _ := env.get(b)
	prefs := NewConstraintSet(MustParseConstraint("income <= old(income) * 1.3"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := demo.System.NewSession(RejectedProfiles()[i%5], prefs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.AskAll("income", 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Session creation at jitd's defaults (the perfbench journey's create).

// journeyDemo is jitd's default system: KI logistic models over 12 eras of
// 1200 rows, T = 3, top-8, seed 1, the bank's domain rule.
var journeyDemo struct {
	once sync.Once
	demo *LoanDemo
	err  error
}

// journeyMenus are the user-constraint menus perfbench's profiles cycle
// through.
var journeyMenus = [][]string{
	nil,
	{"income <= old(income) * 1.4"},
	{"debt >= old(debt) * 0.5"},
	{"amount >= old(amount) * 0.8", "income <= old(income) * 1.6"},
}

func BenchmarkNewSessionJourney(b *testing.B) {
	journeyDemo.once.Do(func() {
		journeyDemo.demo, journeyDemo.err = NewLoanDemo(DefaultLoanDemoConfig())
	})
	if journeyDemo.err != nil {
		b.Fatal(journeyDemo.err)
	}
	sys := journeyDemo.demo.System
	prefs := make([]*ConstraintSet, len(journeyMenus))
	for i, menu := range journeyMenus {
		prefs[i] = NewConstraintSet()
		for _, src := range menu {
			prefs[i].Add(MustParseConstraint(src))
		}
	}
	profiles := RejectedProfiles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NewSession(profiles[i%len(profiles)], prefs[i%len(prefs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: future-model generation per method.

func BenchmarkFutureModels(b *testing.B) {
	demo, _ := env.get(b)
	history := demo.History
	forest := drift.ForestTrainer(mlmodel.ForestConfig{Trees: 15, MaxDepth: 7, MinLeaf: 3, Seed: 1})
	methods := []drift.Generator{
		drift.Last{Trainer: forest},
		drift.Pooled{Trainer: forest},
		drift.KI{Degree: 1},
		drift.EDD{Trainer: forest, Seed: 1, MaxPerEra: 150},
	}
	for _, g := range methods {
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Generate(history, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: candidate search per model family.

func BenchmarkCandidateGeneration(b *testing.B) {
	demo, _ := env.get(b)
	sys := demo.System
	forestModel := sys.Models()[0]
	logitModels, err := (drift.Last{Trainer: drift.LogisticTrainer(mlmodel.DefaultLogisticConfig())}).Generate(demo.History, 0)
	if err != nil {
		b.Fatal(err)
	}
	families := map[string]TimedModel{
		"forest":   forestModel,
		"logistic": logitModels[0],
	}
	for name, tm := range families {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := candgen.Generate(candgen.Problem{
					Schema:    sys.Schema(),
					Model:     tm.Model,
					Threshold: tm.Threshold,
					Input:     RejectedProfiles()[i%5],
				}, candgen.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: generator parallelism (speedup is core-bound; see EXPERIMENTS.md).

func BenchmarkParallelGenerators(b *testing.B) {
	demo, _ := env.get(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := demo.System.Config()
			cfg.Workers = workers
			sys, err := NewSystem(cfg, demo.History)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.NewSession(RejectedProfiles()[0], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: diverse vs greedy top-k selection.

func BenchmarkDiverseTopK(b *testing.B) {
	demo, _ := env.get(b)
	sys := demo.System
	tm := sys.Models()[0]
	for name, lambda := range map[string]float64{"greedy": 0, "diverse": 0.5} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := candgen.Generate(candgen.Problem{
					Schema:    sys.Schema(),
					Model:     tm.Model,
					Threshold: tm.Threshold,
					Input:     RejectedProfiles()[i%5],
				}, candgen.Config{K: 6, BeamWidth: 12, MaxIters: 20, Patience: 3, DiversityPenalty: lambda})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: database substrate scale.

func BenchmarkIngest(b *testing.B) {
	rows := make([][]sqldb.Value, 10000)
	for i := range rows {
		rows[i] = []sqldb.Value{
			sqldb.Int(int64(i % 12)), sqldb.Float(float64(i)), sqldb.Float(float64(i) * 2),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := sqldb.New()
		db.MustExec("CREATE TABLE t (era INT, income FLOAT, amount FLOAT)")
		if err := db.InsertRows("t", rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkQueryScale(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := scaleDB(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query("SELECT time, COUNT(*), MAX(p) FROM candidates GROUP BY time"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func scaleDB(n int) *sqldb.DB {
	db := sqldb.New()
	db.MustExec("CREATE TABLE candidates (time INT, diff FLOAT, gap INT, p FLOAT)")
	rows := make([][]sqldb.Value, n)
	for i := range rows {
		rows[i] = []sqldb.Value{
			sqldb.Int(int64(i % 8)),
			sqldb.Float(float64(i%977) * 13.7),
			sqldb.Int(int64(i % 4)),
			sqldb.Float(float64(i%100) / 100),
		}
	}
	if err := db.InsertRows("candidates", rows); err != nil {
		panic(err)
	}
	return db
}

// --- dataset-scale sanity: generating the Lending-Club-sized history.

func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(dataset.Config{
			Seed: int64(i), Eras: 12, RowsPerEra: 2000, LabelNoise: 0.04, DriftScale: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
