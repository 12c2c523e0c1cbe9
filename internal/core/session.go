package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"justintime/internal/candgen"
	"justintime/internal/constraints"
	"justintime/internal/feature"
	"justintime/internal/sqldb"
)

// Session is one user's interaction: their profile, preferences, temporal
// inputs, and the generated candidates database ready for querying.
type Session struct {
	sys     *System
	profile []float64
	user    *constraints.Set
	inputs  [][]float64 // x_0..x_T
	db      *sqldb.DB
	stats   []candgen.Stats
}

// NewSession runs the temporal candidates generation phase of Section II-B
// for one applicant: it computes the temporal inputs, runs the T+1
// independent candidate generators (on Config.Workers goroutines)
// under the conjunction of domain and user constraints, and loads the
// results into a fresh relational database.
func (s *System) NewSession(profile []float64, user *constraints.Set) (*Session, error) {
	return s.NewSessionContext(context.Background(), profile, user)
}

// NewSessionContext is NewSession under a context: when ctx is cancelled
// (a disconnected client, a server shutdown, a deadline), the candidate
// generators observe it at their next beam iteration, every worker
// goroutine exits, and the call returns an error wrapping ctx.Err() — no
// goroutine keeps burning CPU for an abandoned session.
func (s *System) NewSessionContext(ctx context.Context, profile []float64, user *constraints.Set) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.cfg.Schema.Validate(profile); err != nil {
		return nil, fmt.Errorf("core: profile: %w", err)
	}
	merged := constraints.Merge(s.cfg.Domain, user)
	inputs, err := s.updater.Sequence(profile, s.cfg.T)
	if err != nil {
		return nil, err
	}

	sess := &Session{
		sys:     s,
		profile: feature.Clone(profile),
		user:    user,
		inputs:  inputs,
		stats:   make([]candgen.Stats, s.cfg.T+1),
	}

	// Run the candidate generators; they are independent of each other
	// (Section II-B) and can execute concurrently. Each worker owns one
	// candgen.Searcher and pulls time points from a counter, so a worker
	// that runs several searches reuses one search's scratch memory for the
	// next; the scratch is dropped with the workers when the session is
	// built. Seeds are per time point, so the output does not depend on
	// which worker ran which point. The derived context lets the first
	// failure cancel the sibling searches: their results would be discarded
	// anyway, so they should stop burning CPU.
	ctx, cancelSiblings := context.WithCancel(ctx)
	defer cancelSiblings()
	results := make([][]candgen.Candidate, s.cfg.T+1)
	workers := s.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, s.cfg.T+1)
	var next atomic.Int32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancelSiblings()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sr candgen.Searcher
			for t := int(next.Add(1)) - 1; t <= s.cfg.T; t = int(next.Add(1)) - 1 {
				cfg := s.cfg.CandGen
				cfg.Seed = cfg.Seed*31 + int64(t) // deterministic, distinct per t
				cands, st, err := sr.Generate(ctx, candgen.Problem{
					Schema:      s.cfg.Schema,
					Model:       s.models[t].Model,
					Threshold:   s.models[t].Threshold,
					Input:       inputs[t],
					Constraints: merged,
					Time:        t,
				}, cfg)
				if err != nil {
					fail(fmt.Errorf("core: generator at t=%d: %w", t, err))
					return
				}
				results[t] = cands
				sess.stats[t] = st
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: session cancelled: %w", err)
	}

	if err := sess.loadDatabase(results); err != nil {
		return nil, err
	}
	return sess, nil
}

// loadDatabase creates and fills the session's temporal_inputs and
// candidates tables. Tables and indexes register directly against the
// catalog (no SQL text is built or parsed). The auto-created indexes back
// every canned-question and plan-query shape the planner knows:
//
//	candidates(time,gap)  the dominant-feature EXISTS probe (time = t AND
//	                      gap <= 1): one scan reads only the gap 0 and 1
//	                      rows of that time, the rows its join needs
//	candidates(diff,time) no-modification question (diff = 0, Min(time))
//	                      and minimal-overall Min(diff): every referenced
//	                      column lives in the key tuples, so the planner
//	                      answers both as covering scans without touching
//	                      a single row
//	candidates(p)         maximal-confidence top-k and turning-point p > ?
//	candidates(gap,diff)  minimal-features top-k (ORDER BY gap, diff)
//	candidates(time,p)    plan query top-k (time = ? ORDER BY p DESC) and
//	                      turning-point's per-time NOT EXISTS probe
//	temporal_inputs(time) index nested-loop probes of the inner join side
//
// Names of the two canonical tables every session database carries. Exported
// so the server layer can address the bulky candidates table by name (e.g. to
// move it onto paged storage) without hard-coding schema knowledge.
const (
	CandidatesTable     = "candidates"
	TemporalInputsTable = "temporal_inputs"
)

// Indexes build lazily on first use, so unused shapes cost nothing.
func (sess *Session) loadDatabase(results [][]candgen.Candidate) error {
	schema := sess.sys.cfg.Schema
	db := sqldb.New()

	tiCols := make([]sqldb.Column, 0, 1+schema.Dim())
	tiCols = append(tiCols, sqldb.Column{Name: "time", Type: sqldb.IntType})
	for _, name := range schema.Names() {
		tiCols = append(tiCols, sqldb.Column{Name: name, Type: sqldb.FloatType})
	}
	candCols := make([]sqldb.Column, 0, len(tiCols)+3)
	candCols = append(candCols, tiCols...)
	candCols = append(candCols,
		sqldb.Column{Name: "diff", Type: sqldb.FloatType},
		sqldb.Column{Name: "gap", Type: sqldb.IntType},
		sqldb.Column{Name: "p", Type: sqldb.FloatType},
	)
	if err := db.CreateTable(TemporalInputsTable, tiCols); err != nil {
		return err
	}
	if err := db.CreateTable(CandidatesTable, candCols); err != nil {
		return err
	}
	for _, ix := range []struct {
		name, table string
		cols        []string
	}{
		{"temporal_inputs_time", "temporal_inputs", []string{"time"}},
		{"candidates_time_gap", "candidates", []string{"time", "gap"}},
		{"candidates_diff_time", "candidates", []string{"diff", "time"}},
		{"candidates_p", "candidates", []string{"p"}},
		{"candidates_gap_diff", "candidates", []string{"gap", "diff"}},
		{"candidates_time_p", "candidates", []string{"time", "p"}},
	} {
		if err := db.CreateIndex(ix.name, ix.table, ix.cols...); err != nil {
			return err
		}
	}

	tiRows := make([][]sqldb.Value, len(sess.inputs))
	for t, x := range sess.inputs {
		row := make([]sqldb.Value, 0, 1+len(x))
		row = append(row, sqldb.Int(int64(t)))
		for _, v := range x {
			row = append(row, sqldb.Float(v))
		}
		tiRows[t] = row
	}
	if err := db.InsertRows("temporal_inputs", tiRows); err != nil {
		return err
	}

	var candRows [][]sqldb.Value
	for t, cands := range results {
		for _, c := range cands {
			row := make([]sqldb.Value, 0, 4+len(c.X))
			row = append(row, sqldb.Int(int64(t)))
			for _, v := range c.X {
				row = append(row, sqldb.Float(v))
			}
			row = append(row, sqldb.Float(c.Diff), sqldb.Int(int64(c.Gap)), sqldb.Float(c.Confidence))
			candRows = append(candRows, row)
		}
	}
	if err := db.InsertRows("candidates", candRows); err != nil {
		return err
	}
	sess.db = db
	return nil
}

// Profile returns the applicant's original feature vector.
func (sess *Session) Profile() []float64 { return feature.Clone(sess.profile) }

// TemporalInput returns x_t, the profile advanced to time t.
func (sess *Session) TemporalInput(t int) []float64 {
	return feature.Clone(sess.inputs[t])
}

// GenStats returns per-time-point search statistics (for the convergence
// experiment).
func (sess *Session) GenStats() []candgen.Stats {
	out := make([]candgen.Stats, len(sess.stats))
	copy(out, sess.stats)
	return out
}

// CandidateCount returns the total number of stored candidates.
func (sess *Session) CandidateCount() (int, error) {
	st, err := sess.sys.prepared("SELECT COUNT(*) FROM candidates")
	if err != nil {
		return 0, err
	}
	res, err := st.Query(sess.db)
	if err != nil {
		return 0, err
	}
	n, ok := res.Rows[0][0].AsInt()
	if !ok {
		return 0, fmt.Errorf("core: candidate count: non-integer COUNT value %v", res.Rows[0][0])
	}
	return int(n), nil
}

// SQL is the expert interface: run any SELECT over the session database.
func (sess *Session) SQL(query string) (*sqldb.Result, error) {
	return sess.db.Query(query)
}

// DB exposes the underlying session database (used by the demo server's
// inspection screens).
func (sess *Session) DB() *sqldb.DB { return sess.db }
