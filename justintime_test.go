package justintime

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

var (
	demoOnce sync.Once
	demoVal  *LoanDemo
	demoErr  error
)

// sharedDemo trains one small demo system for all facade tests.
func sharedDemo(t *testing.T) *LoanDemo {
	t.Helper()
	demoOnce.Do(func() {
		cfg := DefaultLoanDemoConfig()
		cfg.Eras = 5
		cfg.RowsPerEra = 400
		cfg.T = 2
		demoVal, demoErr = NewLoanDemo(cfg)
	})
	if demoErr != nil {
		t.Fatal(demoErr)
	}
	return demoVal
}

func TestNewLoanDemoValidation(t *testing.T) {
	cfg := DefaultLoanDemoConfig()
	cfg.Eras = 0
	if _, err := NewLoanDemo(cfg); err == nil {
		t.Error("zero eras should fail")
	}
	cfg = DefaultLoanDemoConfig()
	cfg.Method = "nosuch"
	if _, err := NewLoanDemo(cfg); err == nil {
		t.Error("unknown method should fail")
	}
	cfg = DefaultLoanDemoConfig()
	cfg.DomainConstraints = []string{"income >"}
	if _, err := NewLoanDemo(cfg); err == nil {
		t.Error("bad domain constraint should fail")
	}
}

func TestGeneratorByName(t *testing.T) {
	for _, name := range []string{"edd", "ki", "last", "pooled"} {
		g, err := GeneratorByName(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.Name() != name {
			t.Errorf("GeneratorByName(%s).Name() = %s", name, g.Name())
		}
	}
	if _, err := GeneratorByName("bogus", 1); err == nil {
		t.Error("bogus generator should fail")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	demo := sharedDemo(t)
	sys := demo.System
	if len(sys.Models()) != 3 {
		t.Fatalf("models = %d", len(sys.Models()))
	}
	prefs := NewConstraintSet(MustParseConstraint("income <= old(income) * 1.4"))
	sess, err := sys.NewSession(RejectedProfiles()[0], prefs)
	if err != nil {
		t.Fatal(err)
	}
	insights, err := sess.AskAll("income", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(insights) != 6 {
		t.Fatalf("insights = %d", len(insights))
	}
	for _, ins := range insights {
		if ins.Text == "" {
			t.Errorf("empty insight text for %s", ins.Question.Kind)
		}
	}
	// Expert SQL through the facade.
	res, err := sess.SQL("SELECT COUNT(*) FROM candidates")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("bad expert result")
	}
}

func TestDomainConstraintEnforced(t *testing.T) {
	demo := sharedDemo(t)
	// The default domain constraint caps amount at 80% of income; every
	// stored candidate must respect it.
	sess, err := demo.System.NewSession(RejectedProfiles()[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.SQL("SELECT COUNT(*) FROM candidates WHERE amount > income * 0.8")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("%d candidates violate the domain constraint", n)
	}
}

func TestHistoryFromDataset(t *testing.T) {
	demo := sharedDemo(t)
	hist := HistoryFromDataset(demo.Dataset)
	if len(hist) != 5 {
		t.Fatalf("history eras = %d", len(hist))
	}
	for e, era := range hist {
		if err := era.Validate(); err != nil {
			t.Errorf("era %d: %v", e, err)
		}
	}
}

func TestRejectedProfilesMatchSchema(t *testing.T) {
	schema := LoanSchema()
	for i, p := range RejectedProfiles() {
		if err := schema.Validate(p); err != nil {
			t.Errorf("profile %d: %v", i, err)
		}
	}
}

func TestQuestionsCatalog(t *testing.T) {
	qs := Questions("income", 0.7)
	if len(qs) != 6 {
		t.Fatalf("questions = %d", len(qs))
	}
	if qs[2].Feature != "income" || qs[5].Alpha != 0.7 {
		t.Error("parameterization lost")
	}
}

func TestParseConstraintFacade(t *testing.T) {
	c, err := ParseConstraint("income <= 100000 AND gap <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "income") {
		t.Error("constraint lost its source")
	}
	if _, err := ParseConstraint("income >"); err == nil {
		t.Error("bad constraint should fail")
	}
}

func TestOracleGeneratorFacade(t *testing.T) {
	demo := sharedDemo(t)
	g := OracleGenerator(1, 5, 200)
	models, err := g.Generate(demo.History, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("oracle models = %d", len(models))
	}
}

// TestNewSessionAllocations bounds the bytes one session creation allocates
// at jitd's defaults with perfbench's constraint menus, on 2 Ps, where two
// workers each run two of the four time points' searches on one
// candgen.Searcher. The budget is the measured 2.56 MB per creation on
// go1.24/amd64 plus ~10%. Building every search's scratch afresh costs
// about 3.96 MB and fails it.
func TestNewSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const budget = 2.8e6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sys := journeySystem(t).System
	prefs := journeyPrefs()
	profiles := RejectedProfiles()
	create := func(i int) {
		if _, err := sys.NewSession(profiles[i%len(profiles)], prefs[i%len(prefs)]); err != nil {
			t.Fatal(err)
		}
	}
	create(0)
	// Every profile meets every menu once.
	n := len(profiles) * len(prefs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		create(i)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.2f MB allocated per NewSession over %d creations", per/1e6, n)
	if per > budget {
		t.Errorf("%.2f MB allocated per NewSession, budget %.1f MB", per/1e6, budget/1e6)
	}
}
