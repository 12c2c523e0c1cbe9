package core

import (
	"strings"
	"testing"

	"justintime/internal/sqldb"
)

// explainSession renders the plan the session database actually chooses for
// one statement.
func explainSession(t *testing.T, sess *Session, sql string, args ...sqldb.Value) string {
	t.Helper()
	res, err := sess.db.Query("EXPLAIN "+sql, args...)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		s, _ := row[0].AsText()
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCannedQuestionPlanShapes pins the plans the session serves: the
// canned questions and the plan query must actually hit the planner's
// shapes (composite index scan, index nested-loop join, top-k) against a real
// session database with its auto-created indexes, and the two questions with
// subqueries must memoise them (turning-point's ALL subquery once, its NOT
// EXISTS per temporal-input time; dominant-feature's EXISTS per t).
func TestCannedQuestionPlanShapes(t *testing.T) {
	sys := testSystem(t)
	sess, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}

	assertShapes := func(name, plan string, fragments ...string) {
		t.Helper()
		for _, f := range fragments {
			if !strings.Contains(plan, f) {
				t.Errorf("%s: plan lacks %q:\n%s", name, f, plan)
			}
		}
	}

	for _, q := range Questions("income", 0.8) {
		sql, args, err := sess.questionSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		plan := explainSession(t, sess, sql, args...)
		switch q.Kind {
		case QNoModification:
			assertShapes(q.Kind.String(), plan, "covering index candidates_diff_time (diff=)")
		case QMinimalFeatures:
			assertShapes(q.Kind.String(), plan, "top-k scan candidates using index candidates_gap_diff (gap asc, diff asc) limit 1")
		case QDominantFeature:
			assertShapes(q.Kind.String(), plan,
				"scan cnd using index candidates_time_gap (time=, gap range)",
				"index nested loop (temporal_inputs_time)",
				"memoised on (t)")
		case QMaximalConfidence:
			assertShapes(q.Kind.String(), plan, "top-k scan candidates using index candidates_p (p desc) limit 1")
		case QTurningPoint:
			assertShapes(q.Kind.String(), plan,
				"index candidates_p (p range)",
				"index candidates_time_p (time=, p range)",
				"memoised: uncorrelated",
				"memoised on (ti.time)")
		}
	}

	plan := explainSession(t, sess, planQuerySQL, sqldb.Int(1))
	assertShapes("plan-query", plan, "top-k scan candidates using index candidates_time_p (time=, p desc) limit 1")

	// And the differential sanity on the live session: every canned answer
	// must be identical with the planner ablated.
	for _, q := range Questions("income", 0.8) {
		sql, args, err := sess.questionSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		planned, err := sess.db.Query(sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		sess.db.DisableIndexScan = true
		scanned, err := sess.db.Query(sql, args...)
		sess.db.DisableIndexScan = false
		if err != nil {
			t.Fatal(err)
		}
		if planned.Format() != scanned.Format() {
			t.Errorf("%s: planned and scan answers differ:\n%s\nvs\n%s", q.Kind, planned.Format(), scanned.Format())
		}
	}
}
