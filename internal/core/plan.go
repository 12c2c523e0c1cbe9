package core

import (
	"fmt"
	"strings"

	"justintime/internal/sqldb"
)

// FieldChange is one attribute modification in a plan step.
type FieldChange struct {
	Field string  `json:"field"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
}

// PlanStep is the best decision-altering candidate at one time point, in
// structured form (the machine-readable counterpart of the verbal insights).
type PlanStep struct {
	Time       int           `json:"time"`
	When       string        `json:"when"`
	Changes    []FieldChange `json:"changes"`
	Diff       float64       `json:"diff"`
	Gap        int           `json:"gap"`
	Confidence float64       `json:"confidence"`
}

// String renders the step compactly.
func (s PlanStep) String() string {
	if len(s.Changes) == 0 {
		return fmt.Sprintf("%s: reapply unchanged (confidence %.2f)", s.When, s.Confidence)
	}
	parts := make([]string, len(s.Changes))
	for i, c := range s.Changes {
		parts[i] = fmt.Sprintf("%s: %g -> %g", c.Field, c.From, c.To)
	}
	return fmt.Sprintf("%s: %s (confidence %.2f)", s.When, strings.Join(parts, ", "), s.Confidence)
}

// planQuerySQL is the per-time-point best-candidate lookup. The time is a
// parameter, so one compiled statement (and the candidates(time, p) index)
// serves every t of every session.
const planQuerySQL = "SELECT * FROM candidates WHERE time = ? ORDER BY p DESC LIMIT 1"

// BestPlanAt returns the highest-confidence candidate at time t as a
// structured plan step, or nil when no candidate exists at t.
func (sess *Session) BestPlanAt(t int) (*PlanStep, error) {
	if t < 0 || t > sess.sys.cfg.T {
		return nil, fmt.Errorf("core: time %d outside [0,%d]", t, sess.sys.cfg.T)
	}
	st, err := sess.sys.prepared(planQuerySQL)
	if err != nil {
		return nil, err
	}
	res, err := st.Query(sess.db, sqldb.Int(int64(t)))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	return sess.planStepFromRow(res.Rows[0])
}

// Plan returns the best plan step per time point, skipping time points with
// no candidates. The result is ordered by time.
func (sess *Session) Plan() ([]PlanStep, error) {
	var out []PlanStep
	for t := 0; t <= sess.sys.cfg.T; t++ {
		step, err := sess.BestPlanAt(t)
		if err != nil {
			return nil, err
		}
		if step != nil {
			out = append(out, *step)
		}
	}
	return out, nil
}

// planStepFromRow decodes a full candidates row (time, features..., diff,
// gap, p) into a PlanStep, diffing against the temporal input of its time.
func (sess *Session) planStepFromRow(row []sqldb.Value) (*PlanStep, error) {
	schema := sess.sys.cfg.Schema
	d := schema.Dim()
	if len(row) != d+4 {
		return nil, fmt.Errorf("core: candidates row has %d columns, want %d", len(row), d+4)
	}
	t64, ok := row[0].AsInt()
	if !ok {
		return nil, fmt.Errorf("core: bad time value %v", row[0])
	}
	t := int(t64)
	x := make([]float64, d)
	for i := range x {
		v, ok := row[1+i].AsFloat()
		if !ok {
			return nil, fmt.Errorf("core: bad feature value in column %d", 1+i)
		}
		x[i] = v
	}
	diff, ok := row[1+d].AsFloat()
	if !ok {
		return nil, fmt.Errorf("core: bad diff value %v", row[1+d])
	}
	gap64, ok := row[1+d+1].AsInt()
	if !ok {
		return nil, fmt.Errorf("core: bad gap value %v", row[1+d+1])
	}
	p, ok := row[1+d+2].AsFloat()
	if !ok {
		return nil, fmt.Errorf("core: bad confidence value %v", row[1+d+2])
	}

	input := sess.inputs[t]
	step := &PlanStep{
		Time:       t,
		When:       sess.sys.TimeLabel(t),
		Diff:       diff,
		Gap:        int(gap64),
		Confidence: p,
	}
	for _, name := range schema.ChangedFields(input, x) {
		i, _ := schema.Index(name)
		step.Changes = append(step.Changes, FieldChange{Field: name, From: input[i], To: x[i]})
	}
	return step, nil
}
