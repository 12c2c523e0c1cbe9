package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"justintime/internal/candgen"
	"justintime/internal/constraints"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
	"justintime/internal/sqldb"
)

// testHistory converts a small synthetic loan dataset into drift eras.
func testHistory(t *testing.T, eras, rows int) []drift.Era {
	t.Helper()
	d := dataset.MustGenerate(dataset.Config{Seed: 2, Eras: eras, RowsPerEra: rows, LabelNoise: 0.03, DriftScale: 1})
	out := make([]drift.Era, eras)
	for e := 0; e < eras; e++ {
		for _, ex := range d.Era(e) {
			out[e].X = append(out[e].X, ex.X)
			out[e].Y = append(out[e].Y, ex.Label)
		}
	}
	return out
}

func testConfig() Config {
	return Config{
		Schema:     dataset.LoanSchema(),
		T:          3,
		DeltaYears: 1,
		Generator:  drift.Last{Trainer: drift.ForestTrainer(mlmodel.ForestConfig{Trees: 15, MaxDepth: 7, MinLeaf: 3, Seed: 4})},
		CandGen:    candgen.Config{K: 6, BeamWidth: 12, MaxIters: 15, Patience: 3, DiversityPenalty: 0.5, ShrinkRounds: 12, Seed: 9},
		BaseYear:   2018,
	}
}

func testSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(testConfig(), testHistory(t, 4, 500))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func rejectedProfile(t *testing.T, sys *System) []float64 {
	t.Helper()
	for _, p := range dataset.RejectedProfiles() {
		m := sys.Models()[0]
		if m.Model.Predict(p) <= m.Threshold {
			return p
		}
	}
	t.Fatal("no rejected profile under the trained model")
	return nil
}

func TestConfigValidation(t *testing.T) {
	hist := testHistory(t, 3, 100)
	mut := []struct {
		name string
		mod  func(*Config)
	}{
		{"schema", func(c *Config) { c.Schema = nil }},
		{"negT", func(c *Config) { c.T = -1 }},
		{"delta", func(c *Config) { c.DeltaYears = 0 }},
		{"generator", func(c *Config) { c.Generator = nil }},
		{"workers", func(c *Config) { c.Workers = -2 }},
	}
	for _, m := range mut {
		cfg := testConfig()
		m.mod(&cfg)
		if _, err := NewSystem(cfg, hist); err == nil {
			t.Errorf("%s: expected error", m.name)
		}
	}
	// Reserved column collision.
	cfg := testConfig()
	cfg.Schema = feature.MustSchema(
		feature.Field{Name: "diff", Kind: feature.Continuous, Min: 0, Max: 1},
	)
	if _, err := NewSystem(cfg, hist); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("reserved feature name should fail, got %v", err)
	}
}

func TestSystemBasics(t *testing.T) {
	sys := testSystem(t)
	if got := len(sys.Models()); got != 4 {
		t.Fatalf("models = %d, want T+1 = 4", got)
	}
	if sys.Horizon() != 3 {
		t.Errorf("Horizon = %d", sys.Horizon())
	}
	if sys.Schema().Dim() != 6 {
		t.Errorf("Dim = %d", sys.Schema().Dim())
	}
	if got := sys.TimeLabel(0); got != "now" {
		t.Errorf("TimeLabel(0) = %q", got)
	}
	if got := sys.TimeLabel(1); got != "in 1 year (2019)" {
		t.Errorf("TimeLabel(1) = %q", got)
	}
	if got := sys.TimeLabel(3); got != "in 3 years (2021)" {
		t.Errorf("TimeLabel(3) = %q", got)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	sys := testSystem(t)
	profile := rejectedProfile(t, sys)
	user := constraints.NewSet(constraints.MustParse("income <= old(income) * 1.5"))
	sess, err := sys.NewSession(profile, user)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.CandidateCount()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no candidates generated")
	}
	// Definition II.3 invariant at the database level: every stored
	// candidate row is decision-altering under its time's model and within
	// constraints.
	res, err := sess.SQL("SELECT * FROM candidates")
	if err != nil {
		t.Fatal(err)
	}
	schema := sys.Schema()
	models := sys.Models()
	merged := constraints.Merge(nil, user)
	for ri, row := range res.Rows {
		t64, _ := row[0].AsInt()
		tp := int(t64)
		x := make([]float64, schema.Dim())
		for i := range x {
			x[i], _ = row[1+i].AsFloat()
		}
		p, _ := row[1+schema.Dim()+2].AsFloat()
		got := models[tp].Model.Predict(x)
		if got != p {
			t.Errorf("row %d: stored p=%.4f, model says %.4f", ri, p, got)
		}
		if got <= models[tp].Threshold {
			t.Errorf("row %d not decision-altering", ri)
		}
		ctx := &constraints.Context{
			Schema: schema, Original: sess.TemporalInput(tp), Candidate: x,
			Time: tp, Confidence: got,
		}
		ok, err := merged.Eval(ctx)
		if err != nil || !ok {
			t.Errorf("row %d violates user constraints", ri)
		}
	}
	// Temporal inputs table has T+1 rows with advancing age.
	res, err = sess.SQL("SELECT time, age FROM temporal_inputs ORDER BY time")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("temporal_inputs rows = %d", len(res.Rows))
	}
	age0, _ := res.Rows[0][1].AsFloat()
	age3, _ := res.Rows[3][1].AsFloat()
	if age3 != age0+3 {
		t.Errorf("age should advance: %g -> %g", age0, age3)
	}
}

func TestAskAllQuestions(t *testing.T) {
	sys := testSystem(t)
	sess, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	insights, err := sess.AskAll("income", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(insights) != 6 {
		t.Fatalf("got %d insights", len(insights))
	}
	for i, ins := range insights {
		if ins.Text == "" {
			t.Errorf("insight %d has empty text", i)
		}
		if ins.SQL == "" || ins.Result == nil {
			t.Errorf("insight %d missing SQL or result", i)
		}
	}
}

func TestQuestionParameterValidation(t *testing.T) {
	sys := testSystem(t)
	sess, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Ask(Question{Kind: QDominantFeature, Feature: "nosuch"}); err == nil {
		t.Error("unknown dominant feature should fail")
	}
	if _, err := sess.Ask(Question{Kind: QTurningPoint, Alpha: 1.5}); err == nil {
		t.Error("alpha out of range should fail")
	}
	if _, err := sess.Ask(Question{Kind: QuestionKind(99)}); err == nil {
		t.Error("unknown kind should fail")
	}
}

// candidateRows returns every row of the session's candidates table in
// stored order, every column included.
func candidateRows(t *testing.T, sess *Session) [][]sqldb.Value {
	t.Helper()
	res, err := sess.SQL("SELECT * FROM candidates")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// sameSession fails t unless got stores the same candidates as want, bit for
// bit and in the same order, from searches with the same statistics.
func sameSession(t *testing.T, label string, want, got *Session) {
	t.Helper()
	wr, gr := candidateRows(t, want), candidateRows(t, got)
	if len(wr) == 0 {
		t.Fatalf("%s: no candidates to compare", label)
	}
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d candidate rows, want %d", label, len(gr), len(wr))
	}
	for i := range wr {
		for j := range wr[i] {
			if wr[i][j] != gr[i][j] {
				t.Fatalf("%s: row %d col %d is %s, want %s", label, i, j, gr[i][j], wr[i][j])
			}
		}
	}
	if ws, gs := want.GenStats(), got.GenStats(); !reflect.DeepEqual(ws, gs) {
		t.Fatalf("%s: search stats %+v, want %+v", label, gs, ws)
	}
}

// TestSessionDeterministicAcrossWorkerCounts creates the same sessions with
// 1, 2 and 4 workers (and the default), without and with user constraints.
// Every candidates column, X included, must match bit for bit: a worker
// reuses one Searcher's scratch across the time points it runs, and which
// worker ran which point must not show in the output.
func TestSessionDeterministicAcrossWorkerCounts(t *testing.T) {
	sys, err := NewSystem(testConfig(), testHistory(t, 4, 400))
	if err != nil {
		t.Fatal(err)
	}
	profile := rejectedProfile(t, sys)
	user := constraints.NewSet(
		constraints.MustParse("amount >= old(amount) * 0.8"),
		constraints.MustParse("income <= old(income) * 1.6"),
	)
	for _, set := range []*constraints.Set{nil, user} {
		var want *Session
		for _, workers := range []int{1, 2, 4, 0} {
			sys.cfg.Workers = workers
			sess, err := sys.NewSession(profile, set)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = sess
				continue
			}
			sameSession(t, fmt.Sprintf("workers=%d user=%v", workers, set != nil), want, sess)
		}
	}
}

// TestConcurrentSessionsMatchSequential creates sessions from 4 goroutines
// on one System and requires each to equal the session created alone for
// the same applicant: concurrent creations share the System but no search
// scratch. Run it under -race.
func TestConcurrentSessionsMatchSequential(t *testing.T) {
	sys := testSystem(t)
	base := rejectedProfile(t, sys)
	menus := []*constraints.Set{nil, constraints.NewSet(constraints.MustParse("income <= old(income) * 1.4"))}
	const n = 8
	profiles := make([][]float64, n)
	want := make([]*Session, n)
	for i := range profiles {
		profiles[i] = append([]float64(nil), base...)
		profiles[i][2] += float64(1000 * i) // income: distinct applicants
		sess, err := sys.NewSession(profiles[i], menus[i%len(menus)])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sess
	}
	got := make([]*Session, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				got[i], errs[i] = sys.NewSession(profiles[i], menus[i%len(menus)])
			}
		}(g)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameSession(t, fmt.Sprintf("applicant %d", i), want[i], got[i])
	}
}

func TestInvalidProfileRejected(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.NewSession([]float64{1, 2}, nil); err == nil {
		t.Error("wrong-dimension profile should fail")
	}
	if _, err := sys.NewSession([]float64{5, 1, 48000, 1900, 4, 30000}, nil); err == nil {
		t.Error("out-of-bounds age should fail")
	}
}

func TestExpertSQLInterface(t *testing.T) {
	sys := testSystem(t)
	sess, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.SQL("SELECT time, COUNT(*) AS n FROM candidates GROUP BY time ORDER BY time")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expert query returned nothing")
	}
	if _, err := sess.SQL("DELETE FROM candidates"); err == nil {
		t.Error("expert interface must be read-only (Query rejects DML)")
	}
}

func TestGenStatsPopulated(t *testing.T) {
	sys := testSystem(t)
	sess, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := sess.GenStats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d time points", len(stats))
	}
	for tp, st := range stats {
		if st.Evaluations == 0 {
			t.Errorf("t=%d: no model evaluations recorded", tp)
		}
	}
}

func TestQuestionKindString(t *testing.T) {
	kinds := []QuestionKind{QNoModification, QMinimalFeatures, QDominantFeature, QMinimalOverall, QMaximalConfidence, QTurningPoint}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", k, s)
		}
		seen[s] = true
	}
}

func TestProfileAndTemporalInputCopies(t *testing.T) {
	sys := testSystem(t)
	profile := rejectedProfile(t, sys)
	sess, err := sys.NewSession(profile, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := sess.Profile()
	p[0] = 999
	if sess.Profile()[0] == 999 {
		t.Error("Profile() aliases internal state")
	}
	ti := sess.TemporalInput(1)
	ti[0] = 999
	if sess.TemporalInput(1)[0] == 999 {
		t.Error("TemporalInput() aliases internal state")
	}
}
