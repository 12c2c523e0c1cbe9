// Package core wires the JustInTime pipeline of the paper's Figure 1: the
// administrator configures T (number of future time points), Delta (interval
// length) and domain constraints; the Models Generator trains the sequence
// (M_t, delta_t); per user session the Temporal Update Function produces the
// temporal inputs x_0..x_T, the Candidates Generators run in parallel (one
// per time point) and their output is stored in a relational database with
// tables `temporal_inputs` and `candidates`, which the user then queries
// through canned questions (Figure 2) or free SQL.
package core

import (
	"fmt"
	"sync"

	"justintime/internal/candgen"
	"justintime/internal/constraints"
	"justintime/internal/drift"
	"justintime/internal/feature"
	"justintime/internal/sqldb"
	"justintime/internal/temporal"
)

// reservedColumns are table columns used by the candidates schema; feature
// names must avoid them.
var reservedColumns = map[string]bool{"time": true, "diff": true, "gap": true, "p": true}

// Config is the administrator-level configuration of a JustInTime system.
type Config struct {
	// Schema describes the feature space.
	Schema *feature.Schema
	// T is the number of future time points beyond the present; the
	// system covers t = 0..T.
	T int
	// DeltaYears is the interval length between consecutive time points,
	// in years (it parameterizes default temporal rules and labels).
	DeltaYears float64
	// Generator predicts the future models (the Models Generator). It is
	// invoked once at system construction.
	Generator drift.Generator
	// Updater advances profiles over time; nil builds the default updater
	// from the schema's Temporal flags.
	Updater *temporal.Updater
	// Domain holds the administrator's constraints imposed on all users;
	// nil means none.
	Domain *constraints.Set
	// CandGen tunes the per-time-point candidate search.
	CandGen candgen.Config
	// Workers is the number of goroutines that run a session's T+1
	// candidate generators (they are independent, Section II-B); each runs
	// its share of the time points one after another on one
	// candgen.Searcher. 0 selects min(T+1, GOMAXPROCS), and more than T+1
	// runs T+1.
	Workers int
	// BaseYear labels time point 0 in insights (e.g. 2018). Optional.
	BaseYear int
}

func (c Config) validate() error {
	if c.Schema == nil {
		return fmt.Errorf("core: Config.Schema is required")
	}
	for _, name := range c.Schema.Names() {
		if reservedColumns[name] {
			return fmt.Errorf("core: feature name %q collides with a reserved candidates column", name)
		}
	}
	if c.T < 0 {
		return fmt.Errorf("core: T must be >= 0, got %d", c.T)
	}
	if c.DeltaYears <= 0 {
		return fmt.Errorf("core: DeltaYears must be positive, got %g", c.DeltaYears)
	}
	if c.Generator == nil {
		return fmt.Errorf("core: Config.Generator is required")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// System is a configured JustInTime instance: the trained model sequence
// plus everything shared across users. Create sessions per applicant with
// NewSession. A System is safe for concurrent use by many sessions.
type System struct {
	cfg     Config
	models  []drift.TimedModel
	updater *temporal.Updater

	// stmts caches compiled statements (canned questions, the plan query)
	// keyed by SQL text, so each parses once per process instead of once
	// per ask. Compiled statements are database-independent: one entry
	// serves every session's database.
	stmtMu sync.RWMutex
	stmts  map[string]*sqldb.Stmt
}

// prepared returns the cached compiled statement for sql, compiling it on
// first use.
func (s *System) prepared(sql string) (*sqldb.Stmt, error) {
	s.stmtMu.RLock()
	st := s.stmts[sql]
	s.stmtMu.RUnlock()
	if st != nil {
		return st, nil
	}
	st, err := sqldb.Prepare(sql)
	if err != nil {
		return nil, err
	}
	s.stmtMu.Lock()
	if prev, ok := s.stmts[sql]; ok {
		st = prev // lost the race; keep the canonical copy
	} else {
		s.stmts[sql] = st
	}
	s.stmtMu.Unlock()
	return st, nil
}

// NewSystem validates the configuration and trains the model sequence
// (M_t, delta_t) for t = 0..T from the timestamped history. This phase is
// user-independent and runs once.
func NewSystem(cfg Config, history []drift.Era) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CandGen.K == 0 {
		cfg.CandGen = candgen.DefaultConfig()
	}
	updater := cfg.Updater
	if updater == nil {
		var err error
		if updater, err = temporal.NewUpdater(cfg.Schema, cfg.DeltaYears); err != nil {
			return nil, err
		}
	}
	models, err := cfg.Generator.Generate(history, cfg.T)
	if err != nil {
		return nil, fmt.Errorf("core: models generator (%s): %w", cfg.Generator.Name(), err)
	}
	if len(models) != cfg.T+1 {
		return nil, fmt.Errorf("core: generator returned %d models, want %d", len(models), cfg.T+1)
	}
	return &System{cfg: cfg, models: models, updater: updater, stmts: make(map[string]*sqldb.Stmt)}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Models returns the trained (M_t, delta_t) sequence.
func (s *System) Models() []drift.TimedModel {
	out := make([]drift.TimedModel, len(s.models))
	copy(out, s.models)
	return out
}

// Schema returns the feature schema.
func (s *System) Schema() *feature.Schema { return s.cfg.Schema }

// Horizon returns T, the last future time point.
func (s *System) Horizon() int { return s.cfg.T }

// TimeLabel renders a time point for insights: "now" for 0, otherwise the
// offset (and calendar year when BaseYear is configured).
func (s *System) TimeLabel(t int) string {
	if t == 0 {
		return "now"
	}
	years := float64(t) * s.cfg.DeltaYears
	unit := "years"
	if years == 1 {
		unit = "year"
	}
	if s.cfg.BaseYear > 0 {
		return fmt.Sprintf("in %g %s (%d)", years, unit, s.cfg.BaseYear+int(years))
	}
	return fmt.Sprintf("in %g %s", years, unit)
}
