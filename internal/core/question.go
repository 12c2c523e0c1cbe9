package core

import (
	"fmt"
	"strings"

	"justintime/internal/sqldb"
)

// QuestionKind enumerates the predefined questions of the paper's
// introduction (and Figure 2).
type QuestionKind int

const (
	// QNoModification asks for the closest time point at which reapplying
	// without modifications is approved.
	QNoModification QuestionKind = iota
	// QMinimalFeatures asks for the smallest set of features whose
	// modification leads to approval (when, and how to modify them).
	QMinimalFeatures
	// QDominantFeature asks whether modifying a single given feature can
	// lead to approval at all future time points.
	QDominantFeature
	// QMinimalOverall asks for the minimal overall modification by l2
	// distance.
	QMinimalOverall
	// QMaximalConfidence asks which modification at which time maximizes
	// the approval confidence.
	QMaximalConfidence
	// QTurningPoint asks for the earliest time point after which approval
	// confidence can always exceed alpha.
	QTurningPoint
)

// String names the question kind.
func (k QuestionKind) String() string {
	switch k {
	case QNoModification:
		return "no-modification"
	case QMinimalFeatures:
		return "minimal-features-set"
	case QDominantFeature:
		return "dominant-feature"
	case QMinimalOverall:
		return "minimal-overall-modification"
	case QMaximalConfidence:
		return "maximal-confidence"
	case QTurningPoint:
		return "turning-point"
	default:
		return fmt.Sprintf("QuestionKind(%d)", int(k))
	}
}

// ParseQuestionKind resolves the kind names used by the HTTP API and CLI
// (the String() values of the kinds).
func ParseQuestionKind(name string) (QuestionKind, error) {
	for _, k := range []QuestionKind{QNoModification, QMinimalFeatures, QDominantFeature, QMinimalOverall, QMaximalConfidence, QTurningPoint} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown question kind %q", name)
}

// Question is one canned question instance. Feature parameterizes
// QDominantFeature; Alpha parameterizes QTurningPoint.
type Question struct {
	Kind    QuestionKind
	Feature string
	Alpha   float64
}

// Questions lists one default instance of every canned question, using the
// given feature and alpha for the parameterized ones.
func Questions(feature string, alpha float64) []Question {
	return []Question{
		{Kind: QNoModification},
		{Kind: QMinimalFeatures},
		{Kind: QDominantFeature, Feature: feature},
		{Kind: QMinimalOverall},
		{Kind: QMaximalConfidence},
		{Kind: QTurningPoint, Alpha: alpha},
	}
}

// questionSQL translates the question into the SQL executed against the
// session database, following the paper's Figure 2 templates. Runtime
// values (alpha) become `?` parameters so the statement text — and thus its
// compiled form in the System statement cache — is shared across all users;
// only identifiers (the dominant feature's column name) are interpolated.
func (sess *Session) questionSQL(q Question) (string, []sqldb.Value, error) {
	switch q.Kind {
	case QNoModification:
		return "SELECT Min(time) FROM candidates WHERE diff = 0", nil, nil
	case QMinimalFeatures:
		// Figure 2 orders by gap alone; diff is added as a deterministic
		// tie-break so "the smallest set" is also the cheapest one.
		return "SELECT * FROM candidates ORDER BY gap, diff LIMIT 1", nil, nil
	case QDominantFeature:
		f := strings.ToLower(strings.TrimSpace(q.Feature))
		if _, ok := sess.sys.cfg.Schema.Index(f); !ok {
			return "", nil, fmt.Errorf("core: dominant-feature question: unknown feature %q", q.Feature)
		}
		// The `gap <= 1` conjunct is implied by the OR that follows; it is
		// spelled out because it is sargable where the OR is not, letting
		// the planner scan candidates(time, gap) on time = t and the gap
		// range, so only the rows the residual OR can keep reach the join,
		// which probes temporal_inputs(time) as an index nested loop.
		return fmt.Sprintf(`SELECT distinct time as t
FROM candidates
WHERE EXISTS
(SELECT *
 FROM candidates as cnd
 INNER JOIN temporal_inputs as ti
 ON ti.time = cnd.time
 WHERE cnd.time = t
 AND gap <= 1
 AND ((gap = 0) OR (gap = 1 AND cnd.%s != ti.%s)))
ORDER BY t`, f, f), nil, nil
	case QMinimalOverall:
		return "SELECT Min(diff) FROM candidates", nil, nil
	case QMaximalConfidence:
		return "SELECT * FROM candidates ORDER BY p DESC LIMIT 1", nil, nil
	case QTurningPoint:
		if q.Alpha < 0 || q.Alpha >= 1 {
			return "", nil, fmt.Errorf("core: turning-point question: alpha %g outside [0,1)", q.Alpha)
		}
		// Earliest time with a strong candidate that is later than every
		// time lacking one.
		return `SELECT Min(time) FROM candidates WHERE p > ? AND time > ALL
(SELECT ti.time FROM temporal_inputs ti WHERE NOT EXISTS
 (SELECT * FROM candidates c WHERE c.time = ti.time AND c.p > ?))`,
			[]sqldb.Value{sqldb.Float(q.Alpha), sqldb.Float(q.Alpha)}, nil
	default:
		return "", nil, fmt.Errorf("core: unknown question kind %d", q.Kind)
	}
}
