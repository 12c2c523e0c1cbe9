package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"justintime/internal/sqldb"
)

// TestRestoreSessionRoundTrip rebuilds a session from its own database dump
// — the persistence path — and asserts the restored session answers exactly
// like the original without re-running generation.
func TestRestoreSessionRoundTrip(t *testing.T) {
	sys := testSystem(t)
	orig, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the database through a structural dump, as the snapshot
	// codec does, so the restored session owns an independent DB.
	db2, err := sqldb.NewFromDump(orig.DB().Dump())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sys.RestoreSession(db2, orig.Profile())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(orig.Profile(), restored.Profile()) {
		t.Fatal("restored profile differs")
	}
	for tp := 0; tp <= sys.Horizon(); tp++ {
		if !reflect.DeepEqual(orig.TemporalInput(tp), restored.TemporalInput(tp)) {
			t.Fatalf("restored temporal input at t=%d differs", tp)
		}
	}
	if !reflect.DeepEqual(orig.DB().Dump(), restored.DB().Dump()) {
		t.Fatal("restored database differs row-for-row")
	}

	// Every canned question answers identically.
	origIns, err := orig.AskAll("income", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	restIns, err := restored.AskAll("income", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(origIns) != len(restIns) {
		t.Fatalf("insight counts differ: %d vs %d", len(origIns), len(restIns))
	}
	for i := range origIns {
		if origIns[i].Text != restIns[i].Text {
			t.Errorf("question %s: %q vs %q", origIns[i].Question.Kind, origIns[i].Text, restIns[i].Text)
		}
	}

	// The structured plan matches too.
	origPlan, err := orig.Plan()
	if err != nil {
		t.Fatal(err)
	}
	restPlan, err := restored.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(origPlan, restPlan) {
		t.Fatalf("plans differ:\n%v\nvs\n%v", origPlan, restPlan)
	}

	// A nil profile falls back to x_0.
	db3, err := sqldb.NewFromDump(orig.DB().Dump())
	if err != nil {
		t.Fatal(err)
	}
	fromX0, err := sys.RestoreSession(db3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromX0.TemporalInput(0), fromX0.Profile()) {
		t.Fatal("nil-profile restore should use x_0")
	}
}

func TestRestoreSessionValidation(t *testing.T) {
	sys := testSystem(t)

	if _, err := sys.RestoreSession(nil, nil); err == nil {
		t.Error("nil db accepted")
	}

	// Missing candidates table.
	db := sqldb.New()
	db.MustExec("CREATE TABLE temporal_inputs (time INT)")
	if _, err := sys.RestoreSession(db, nil); err == nil {
		t.Error("db without candidates accepted")
	}

	// Wrong temporal_inputs arity.
	db = sqldb.New()
	db.MustExec("CREATE TABLE temporal_inputs (time INT, x FLOAT)")
	db.MustExec("CREATE TABLE candidates (time INT)")
	db.MustExec("INSERT INTO temporal_inputs VALUES (0, 1.0)")
	if _, err := sys.RestoreSession(db, nil); err == nil {
		t.Error("schema-mismatched temporal_inputs accepted")
	}

	// Row count mismatch (horizon changed between persist and restore).
	orig, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := sqldb.NewFromDump(orig.DB().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec("DELETE FROM temporal_inputs WHERE time = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RestoreSession(db2, nil); err == nil {
		t.Error("missing temporal input row accepted")
	}

	// Profile arity mismatch.
	db3, err := sqldb.NewFromDump(orig.DB().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RestoreSession(db3, []float64{1, 2}); err == nil {
		t.Error("short profile accepted")
	}
}

// TestRestoreSessionWithRetiredIndexes: a snapshot carries its index
// declarations, so a session written before candidates(time) and
// candidates(diff) gave way to candidates(time, gap) reopens with the old
// seven indexes. It must answer every question and the plan byte for byte
// like the live session.
func TestRestoreSessionWithRetiredIndexes(t *testing.T) {
	sys := testSystem(t)
	live, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := live.DB().Dump()
	d.Indexes = []sqldb.IndexDump{
		{Name: "candidates_time", Table: CandidatesTable, Column: "time"},
		{Name: "candidates_diff", Table: CandidatesTable, Column: "diff"},
		{Name: "candidates_diff_time", Table: CandidatesTable, Column: "diff,time"},
		{Name: "candidates_p", Table: CandidatesTable, Column: "p"},
		{Name: "candidates_gap_diff", Table: CandidatesTable, Column: "gap,diff"},
		{Name: "candidates_time_p", Table: CandidatesTable, Column: "time,p"},
		{Name: "temporal_inputs_time", Table: TemporalInputsTable, Column: "time"},
	}
	db, err := sqldb.NewFromDump(d)
	if err != nil {
		t.Fatal(err)
	}
	old, err := sys.RestoreSession(db, live.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if names, err := old.DB().IndexNames(CandidatesTable); err != nil || len(names) != 6 || names[0] != "candidates_time" {
		t.Fatalf("restored candidates indexes = %v, %v; want the six retired-layout ones", names, err)
	}
	sql, _, err := old.questionSQL(Question{Kind: QDominantFeature, Feature: "income"})
	if err != nil {
		t.Fatal(err)
	}
	if plan := explainSession(t, old, sql); !strings.Contains(plan, "scan cnd using index candidates_time (time=)") {
		t.Fatalf("retired-index session does not plan over its own indexes:\n%s", plan)
	}
	render := func(sess *Session) string {
		t.Helper()
		var sb strings.Builder
		ins, err := sess.AskAll("income", 0.7)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			fmt.Fprintf(&sb, "%s\n%s\n%s\n", in.Question.Kind, in.Text, in.Result.Format())
		}
		plan, err := sess.Plan()
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range plan {
			fmt.Fprintf(&sb, "%s %+v\n", step, step)
		}
		return sb.String()
	}
	if want, got := render(live), render(old); got != want {
		t.Fatalf("retired-index session answers differently:\n%s\nvs live\n%s", got, want)
	}
}

// TestRestoredSessionPlansMatchLive: a plan depends on the statement and the
// rows, never on what ran before. A session restored from a live session's
// database must plan each statement — the six questions, the plan query and
// perfbench's three expert statements — on its first EXPLAIN exactly as the
// live session does after serving every statement once.
func TestRestoredSessionPlansMatchLive(t *testing.T) {
	sys := testSystem(t)
	live, err := sys.NewSession(rejectedProfile(t, sys), nil)
	if err != nil {
		t.Fatal(err)
	}
	type statement struct {
		name string
		sql  string
		args []sqldb.Value
	}
	var stmts []statement
	for _, q := range Questions("income", 0.7) {
		sql, args, err := live.questionSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, statement{q.Kind.String(), sql, args})
	}
	stmts = append(stmts,
		statement{"plan-query", planQuerySQL, []sqldb.Value{sqldb.Int(1)}},
		statement{"by_time", "SELECT time, COUNT(*) AS n, MIN(diff) AS closest, MAX(p) AS best FROM candidates GROUP BY time ORDER BY time", nil},
		statement{"join_inputs", "SELECT c.time, c.diff, c.p, ti.income FROM candidates c INNER JOIN temporal_inputs ti ON ti.time = c.time WHERE c.gap <= 2 ORDER BY c.time, c.diff, c.p LIMIT 20", nil},
		statement{"top_conf", "SELECT * FROM candidates WHERE p > 0.6 ORDER BY p DESC, diff LIMIT 10", nil},
	)
	for _, st := range stmts {
		if _, err := live.DB().Query(st.sql, st.args...); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
	}
	for _, st := range stmts {
		db, err := sqldb.NewFromDump(live.DB().Dump())
		if err != nil {
			t.Fatal(err)
		}
		restored, err := sys.RestoreSession(db, live.Profile())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := explainSession(t, restored, st.sql, st.args...), explainSession(t, live, st.sql, st.args...); got != want {
			t.Errorf("%s: restored session plans\n%s\nlive session plans\n%s", st.name, got, want)
		}
	}
}
