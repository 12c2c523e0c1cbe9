package core

import "testing"

// TestAskAllocations bounds what a re-asked question costs in allocations:
// each canned question and the plan, asked again on a session whose indexes
// are already built, so the count is planning, execution and rendering
// alone. Budgets are the measured counts plus about 10%.
func TestAskAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	sys := testSystem(t)
	sess, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[QuestionKind]float64{
		QNoModification:    40,  // measured 36
		QMinimalFeatures:   42,  // measured 39
		QDominantFeature:   728, // measured 662
		QMinimalOverall:    128, // measured 116
		QMaximalConfidence: 38,  // measured 35
		QTurningPoint:      428, // measured 389
	}
	for _, q := range Questions("income", 0.7) {
		got := testing.AllocsPerRun(20, func() {
			if _, err := sess.Ask(q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per ask", q.Kind, got)
		if budget := budgets[q.Kind]; got > budget {
			t.Errorf("%s: %.0f allocs per ask, budget %.0f", q.Kind, got, budget)
		}
	}
	const planBudget = 122 // measured 115
	got := testing.AllocsPerRun(20, func() {
		if _, err := sess.Plan(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("plan: %.0f allocs", got)
	if got > planBudget {
		t.Errorf("plan: %.0f allocs, budget %d", got, planBudget)
	}
}
