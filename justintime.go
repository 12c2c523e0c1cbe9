// Package justintime is a Go implementation of JustInTime, the system of
// "Just in Time: Personal Temporal Insights for Altering Model Decisions"
// (Boer, Deutch, Frost, Milo — ICDE 2019): given a machine-learning
// classifier whose models and data evolve over time, it tells a rejected
// applicant which features to modify, how to modify them, and when to
// reapply, so that the (future) model's decision flips.
//
// The pipeline (paper Figure 1):
//
//  1. An administrator configures the number of future time points T, the
//     interval Delta between them, and global domain constraints.
//  2. The Models Generator trains a sequence of models (M_t, delta_t) for
//     t = 0..T from timestamped labeled history, using a drift-aware
//     future-model generator (kernel mean-embedding extrapolation a la
//     Lampert CVPR'15, or parameter-trajectory extrapolation a la
//     Kumagai & Iwata AAAI'16) or a drift-oblivious baseline.
//  3. Per user session, a Temporal Update Function advances the profile to
//     x_0..x_T, and T+1 independent candidate generators search for diverse
//     top-k decision-altering candidates under the user's constraints.
//  4. The candidates land in a relational database (tables temporal_inputs
//     and candidates) queried through six canned questions (paper Figure 2)
//     or free SQL.
//
// Quickstart (the module path is "justintime"; import subpackages as
// justintime/internal/... only from within this module):
//
//	demo, err := justintime.NewLoanDemo(justintime.DefaultLoanDemoConfig())
//	...
//	prefs := justintime.NewConstraintSet(justintime.MustParseConstraint("income <= old(income) * 1.3"))
//	sess, err := demo.System.NewSession(justintime.RejectedProfiles()[0], prefs)
//	insights, err := sess.AskAll("income", 0.7)
//
// Every subsystem is implemented in this repository on the standard library
// alone: CART/random-forest/logistic models (internal/mlmodel), kernel
// methods (internal/kernel), future-model generation (internal/drift), an
// in-memory SQL engine standing in for MySQL (internal/sqldb), the
// constraint language (internal/constraints), temporal update rules
// (internal/temporal), and the beam-search candidate generator
// (internal/candgen).
//
// # Batch prediction
//
// Models implementing mlmodel.BatchModel expose PredictBatch(X) alongside
// per-row Predict; mlmodel.PredictBatch(m, X) dispatches to the native batch
// path when present and falls back to per-row calls otherwise. Trees keep
// their nodes in a flat structure-of-arrays layout so forest batch scoring
// streams rows through contiguous arrays (trees-outer, rows-inner, sharded
// across the forest's configured workers on large batches), and logistic
// batch scoring reuses one standardization buffer for the whole batch.
// Batch results are bit-identical to per-row Predict. The candidate
// generator scores each beam iteration's full move set — and each of the
// pool shrinking phase's bisection rounds (candgen.Config.ShrinkRounds, 3
// by default; later rounds almost never change the top K) — with single
// batch calls, and the evaluation metrics (accuracy, AUC, log-loss,
// threshold calibration) score their datasets the same way.
//
// # Query engine: prepared statements, indexes, concurrency
//
// internal/sqldb is a small query engine, not just an interpreter. SQL
// compiles once via sqldb.Prepare into a Stmt whose `?` placeholders bind
// positionally at execution; a Stmt is database-independent, so core.System
// caches each canned question and the plan query compiled once per process
// and runs them against every session's database. Session databases load
// through typed catalog registration (DB.CreateTable / DB.InsertRows — no
// SQL text is built or parsed per session) and carry secondary indexes
// (DB.CreateIndex or CREATE INDEX ... ON t (col)); candidates(time) and
// temporal_inputs(time) are indexed automatically. Indexes answer equality
// conjuncts from a hash table and range / BETWEEN conjuncts from sorted
// keys; the executor pushes sargable WHERE conjuncts — including correlated
// ones, evaluated against the enclosing row — down to the index of the
// first FROM table and keeps the full WHERE as a residual filter, so
// results (and type errors) are identical to the scan path. Indexes rebuild
// lazily after mutations under an internal latch.
//
// The concurrency contract: sqldb.DB serializes writers behind an RWMutex
// while any number of readers query concurrently, which is how many
// requests share one applicant session. Session creation is context-aware —
// System.NewSessionContext threads its ctx into every candidate generator
// (candgen.Searcher.Generate), and the beam search checks cancellation each
// iteration, so a disconnected client's workers exit instead of burning
// CPU. internal/server holds sessions under crypto/rand capability IDs
// with an idle TTL and an LRU-evicting cap, bounds the expert SQL endpoint
// to row-capped SELECTs, and cmd/jitd drains in-flight requests on
// SIGINT/SIGTERM.
//
// # Benchmarks
//
// The experiment-shaped benchmarks live in bench_test.go; run them with
//
//	go test -run '^$' -bench . -benchtime=2s .
//
// BenchmarkCandidateGeneration isolates the beam search per model family and
// BenchmarkEndToEndPipeline measures a whole applicant session; per-package
// micro-benchmarks live next to their subsystems (e.g. internal/sqldb).
package justintime

import (
	"fmt"

	"justintime/internal/candgen"
	"justintime/internal/constraints"
	"justintime/internal/core"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
	"justintime/internal/sqldb"
	"justintime/internal/temporal"
)

// Re-exported core types: the facade keeps examples and downstream users on
// a single import.
type (
	// Config is the administrator-level system configuration.
	Config = core.Config
	// System is a configured JustInTime instance.
	System = core.System
	// Session is one applicant's generated-candidates session.
	Session = core.Session
	// Question is a canned question instance.
	Question = core.Question
	// QuestionKind enumerates the canned questions.
	QuestionKind = core.QuestionKind
	// Insight is a canned question's answer.
	Insight = core.Insight
	// PlanStep is the structured best candidate at one time point.
	PlanStep = core.PlanStep
	// FieldChange is one attribute modification in a plan step.
	FieldChange = core.FieldChange

	// Era is one time slice of labeled training data.
	Era = drift.Era
	// TimedModel is the (M_t, delta_t) pair.
	TimedModel = drift.TimedModel
	// Generator predicts future models from timestamped history.
	Generator = drift.Generator

	// Schema describes the feature space.
	Schema = feature.Schema
	// Field describes one feature.
	Field = feature.Field

	// Constraint is a parsed constraint expression.
	Constraint = constraints.Constraint
	// ConstraintSet is a conjunction of timed constraints.
	ConstraintSet = constraints.Set

	// Candidate is one decision-altering candidate.
	Candidate = candgen.Candidate
	// CandGenConfig tunes the candidate search.
	CandGenConfig = candgen.Config

	// Result is a SQL query result.
	Result = sqldb.Result
	// Updater is a temporal update function.
	Updater = temporal.Updater
)

// Canned question kinds (paper Figure 2 / introduction).
const (
	QNoModification    = core.QNoModification
	QMinimalFeatures   = core.QMinimalFeatures
	QDominantFeature   = core.QDominantFeature
	QMinimalOverall    = core.QMinimalOverall
	QMaximalConfidence = core.QMaximalConfidence
	QTurningPoint      = core.QTurningPoint
)

// NewSystem builds a System: it validates cfg and trains the model sequence
// from the timestamped history.
func NewSystem(cfg Config, history []Era) (*System, error) {
	return core.NewSystem(cfg, history)
}

// Questions lists one instance of every canned question.
func Questions(dominantFeature string, alpha float64) []Question {
	return core.Questions(dominantFeature, alpha)
}

// ParseConstraint compiles a constraint expression such as
// "income <= old(income) * 1.3 AND gap <= 2".
func ParseConstraint(src string) (*Constraint, error) { return constraints.Parse(src) }

// MustParseConstraint is ParseConstraint that panics on error.
func MustParseConstraint(src string) *Constraint { return constraints.MustParse(src) }

// NewConstraintSet bundles always-applicable constraints.
func NewConstraintSet(cs ...*Constraint) *ConstraintSet { return constraints.NewSet(cs...) }

// LoanSchema returns the six-feature loan-application schema of the paper's
// running example.
func LoanSchema() *Schema { return dataset.LoanSchema() }

// RejectedProfiles returns the five canonical rejected applicants of the
// demonstration reenactment; index 0 is "John" from the paper's Example I.1.
func RejectedProfiles() [][]float64 { return dataset.RejectedProfiles() }

// GeneratorByName constructs a future-model generator: "edd" (kernel
// mean-embedding extrapolation), "ki" (parameter trajectories), "last"
// (train on the newest era only) or "pooled" (train on all history).
func GeneratorByName(name string, seed int64) (Generator, error) {
	forest := drift.ForestTrainer(mlmodel.ForestConfig{Trees: 30, MaxDepth: 8, MinLeaf: 3, Seed: seed})
	switch name {
	case "edd":
		return drift.EDD{Trainer: forest, Seed: seed}, nil
	case "ki":
		return drift.KI{Degree: 1}, nil
	case "last":
		return drift.Last{Trainer: forest}, nil
	case "pooled":
		return drift.Pooled{Trainer: forest}, nil
	default:
		return nil, fmt.Errorf("justintime: unknown generator %q (want edd, ki, last or pooled)", name)
	}
}
