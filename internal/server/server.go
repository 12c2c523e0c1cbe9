// Package server exposes the JustInTime demo over a JSON HTTP API mirroring
// the three screens of the paper's demonstration: Personal Preferences
// (create a session with constraints), Queries (the canned questions), and
// Plans & Insights (answers), plus the behind-the-scenes inspection
// endpoints the demo walks the audience through (schema, models, temporal
// inputs, raw SQL).
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/constraints"
	"justintime/internal/core"
	"justintime/internal/dataset"
	"justintime/internal/fault"
	"justintime/internal/obs"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
	"justintime/internal/sqldb/persist"
)

// Config bounds the server's resource usage per deployment.
type Config struct {
	// MaxSessions caps live sessions; at capacity the least recently used
	// session is evicted. <= 0 selects 1024.
	MaxSessions int
	// SessionTTL is the idle lifetime of a session; a session untouched
	// for longer is dropped. <= 0 selects 30 minutes.
	SessionTTL time.Duration
	// MaxSQLRows caps the rows returned by the expert SQL endpoint (the
	// response carries "truncated": true past the cap). <= 0 selects 10000.
	MaxSQLRows int
	// DataDir, when non-empty, turns on the durability subsystem: every
	// session's candidates database is persisted under
	// DataDir/sessions/<id>/ (snapshot + write-ahead log), evictions
	// checkpoint to disk instead of destroying the session, and a cache
	// miss rehydrates from disk instead of returning 404 — so a daemon
	// restart resumes its sessions without re-running candidate
	// generation. Empty keeps sessions memory-only.
	DataDir string
	// WALSync selects the WAL fsync policy under DataDir (persist.SyncAlways
	// fsyncs per mutation; persist.SyncBatched defers fsync to checkpoints).
	WALSync persist.SyncMode
	// Shards is the session-manager shard count: independent lock domains
	// for session lookup/eviction/rehydration. <= 0 selects GOMAXPROCS.
	Shards int
	// MaxPendingCreates bounds concurrently admitted session creations
	// (each one runs T+1 beam searches). Past the bound, POST /api/sessions
	// answers 429 with Retry-After instead of piling goroutines onto the
	// CPU. <= 0 selects 32.
	MaxPendingCreates int
	// BufferPoolPages, when > 0 (and DataDir is set — paged storage needs a
	// backing file), puts every session's candidates table on paged row
	// storage behind one shared buffer pool of this many 8 KiB frames. Row
	// pages then fault in from disk on demand and evict under memory
	// pressure, so the resident heap cost of an idle session is its page
	// directory, not its rows. 0 keeps rows on plain in-heap slices.
	BufferPoolPages int
	// SlowRequest is the tail-sampling threshold: every request at or over
	// it is kept in the slow-trace ring (GET /debug/requests/slow) with a
	// rendered query plan, regardless of sampling. <= 0 selects 25ms.
	SlowRequest time.Duration
	// TraceSampleEvery keeps 1 in N fast (sub-threshold) requests in the
	// recent-trace ring (GET /debug/requests). <= 0 selects 16.
	TraceSampleEvery int
	// TraceRingCap bounds each trace ring (recent and slow). <= 0 selects 256.
	TraceRingCap int
	// DisableTracing turns request tracing off entirely: no spans, no trace
	// rings, and /debug/requests reports 404. /metrics and the access log
	// stay up.
	DisableTracing bool
	// Logger, when non-nil, replaces slog.Default() for the server's
	// structured logs (access log, session-manager diagnostics).
	Logger *slog.Logger
	// KeepSessionID, when non-nil, filters freshly minted session IDs:
	// creation redraws until the predicate accepts one. A cluster shard
	// passes cluster ownership of its own name here, so every session it
	// creates hashes back to it under the shard map — the invariant the
	// router's consistent hashing relies on. Nil accepts every ID.
	KeepSessionID func(id string) bool
	// ReplicateTo, when non-empty (and DataDir is set — replication ships
	// the on-disk session tree), streams every session's durable state to
	// the warm standby listening at this host:port: WAL appends as they
	// happen, full file sets on create/checkpoint, deletions as they
	// happen. The standby replays continuously and can be promoted to
	// primary after a failover.
	ReplicateTo string
	// FS, when non-nil, routes every durable write (snapshots, WAL, page
	// files, the degraded-mode probe) through this I/O plane instead of the
	// real filesystem. Tests and the chaos harness install a fault.Injector
	// here; nil is the real disk at zero overhead.
	FS fault.FS
	// ReplicationDial, when non-nil, replaces net.DialTimeout for the
	// replication shipper's connections to the standby — the seam the chaos
	// harness uses to inject network faults into the replication link.
	ReplicationDial persist.DialFunc
	// DegradedProbeInterval is how often a server in read-only degraded
	// mode (out-of-space data dir) re-attempts a durable write to detect
	// recovery. <= 0 selects 1s.
	DegradedProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.MaxSQLRows <= 0 {
		c.MaxSQLRows = 10000
	}
	if c.MaxPendingCreates <= 0 {
		c.MaxPendingCreates = 32
	}
	if c.SlowRequest <= 0 {
		c.SlowRequest = 25 * time.Millisecond
	}
	if c.TraceSampleEvery <= 0 {
		c.TraceSampleEvery = 16
	}
	if c.TraceRingCap <= 0 {
		c.TraceRingCap = 256
	}
	if c.DegradedProbeInterval <= 0 {
		c.DegradedProbeInterval = time.Second
	}
	return c
}

// Server is an http.Handler serving the demo API.
type Server struct {
	sys      *core.System
	cfg      Config
	mux      *http.ServeMux
	sessions *sessionManager
	// pool is the shared buffer pool behind every paged candidates table
	// (nil when paged storage is off).
	pool *pager.Pool
	// createSem is the bounded admission queue for session creation: a slot
	// must be held for the whole generate+persist span, and an unavailable
	// slot turns into 429 + Retry-After instead of an unbounded goroutine
	// pile-up behind the beam searches.
	createSem chan struct{}
	// collector owns the per-request trace rings (nil when tracing is
	// disabled; every use is nil-safe).
	collector *obs.Collector
	// logger receives the access log and flows into the session manager.
	logger *slog.Logger
	// shipper streams the session tree to a warm standby (nil when
	// Config.ReplicateTo is empty).
	shipper *persist.Shipper
	// degraded is the read-only mode flag (see degrade.go); stop ends the
	// recovery probe goroutine when the server closes.
	degraded atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once

	// Latency histograms exported on /metrics, all over latencyBoundsUs:
	// per route path, per question kind, per WAL fsync and per buffer-pool
	// page fault. The maps are filled during construction and only read
	// afterwards, so recording takes no lock.
	routeHists    map[string]*obs.Histogram
	questionHists map[string]*obs.Histogram
	walFsync      *obs.Histogram
	poolFault     *obs.Histogram
}

// New builds a Server around a configured system with default limits.
func New(sys *core.System) *Server { return NewWithConfig(sys, Config{}) }

// NewWithConfig builds a Server with explicit session/query limits.
func NewWithConfig(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	walFsync := obs.NewHistogram(latencyBoundsUs)
	poolFault := obs.NewHistogram(latencyBoundsUs)
	var pool *pager.Pool
	if cfg.DataDir != "" && cfg.BufferPoolPages > 0 {
		pool = pager.NewPool(cfg.BufferPoolPages)
		pool.OnFault = poolFault.Observe
	}
	var p *persister
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if cfg.DataDir != "" {
		p = newPersister(cfg.DataDir, sys, cfg.WALSync, pool, cfg.FS)
		p.logger = logger
		p.opts.OnFsync = walFsync.Observe
	}
	var shipper *persist.Shipper
	if p != nil && cfg.ReplicateTo != "" {
		// Wired before the session manager exists, so no session's store can
		// be created without its append hook.
		shipper = persist.NewShipperDialer(p.root, cfg.ReplicateTo, logger, cfg.ReplicationDial)
		p.shipper = shipper
	}
	var collector *obs.Collector
	if !cfg.DisableTracing {
		collector = obs.NewCollector(cfg.SlowRequest, cfg.TraceSampleEvery, cfg.TraceRingCap)
	}
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		pool:      pool,
		sessions:  newSessionManager(cfg.MaxSessions, cfg.SessionTTL, cfg.Shards, p),
		createSem: make(chan struct{}, cfg.MaxPendingCreates),
		collector: collector,
		logger:    logger,
		shipper:   shipper,
		stop:      make(chan struct{}),

		routeHists:    make(map[string]*obs.Histogram),
		questionHists: newQuestionHists(),
		walFsync:      walFsync,
		poolFault:     poolFault,
	}
	// The manager is built by newSessionManager (whose signature tests
	// depend on); observability and cluster seams are wired in afterwards.
	s.sessions.traces = collector
	s.sessions.logger = logger
	s.sessions.keepID = cfg.KeepSessionID
	s.sessions.onPersistError = s.notePersistError
	mux := http.NewServeMux()
	s.route(mux, "GET /api/schema", s.handleSchema)
	s.route(mux, "GET /api/models", s.handleModels)
	s.route(mux, "GET /api/profiles", s.handleProfiles)
	s.route(mux, "GET /api/questions", s.handleQuestions)
	s.route(mux, "POST /api/sessions", s.handleCreateSession)
	s.route(mux, "DELETE /api/sessions/{id}", s.handleDeleteSession)
	s.route(mux, "GET /api/sessions/{id}/inputs", s.handleInputs)
	s.route(mux, "GET /api/sessions/{id}/plan", s.handlePlan)
	s.route(mux, "POST /api/sessions/{id}/ask", s.handleAsk)
	s.route(mux, "POST /api/sessions/{id}/sql", s.handleSQL)
	// Introspection endpoints are served bare: scrapes and debug reads must
	// not pollute the trace rings or the per-route latency histograms.
	mux.HandleFunc("GET /debug/requests", s.handleRequests)
	mux.HandleFunc("GET /debug/requests/slow", s.handleRequestsSlow)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// statusWriter captures the response status for the access log and the
// trace envelope.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// route registers handler under pattern, wrapped in the server's
// observability middleware: a per-request trace carried on the request
// context (tail-sampled into /debug/requests), an X-Request-Id response
// header, a per-route latency histogram exported on /metrics, and a
// structured access log line. The route label is the pattern's path as
// registered — Go's mux matched pattern, not the raw URL — so label
// cardinality is fixed at registration time.
func (s *Server) route(mux *http.ServeMux, pattern string, handler http.HandlerFunc) {
	method, path, _ := strings.Cut(pattern, " ")
	hist, ok := s.routeHists[path]
	if !ok {
		hist = obs.NewHistogram(latencyBoundsUs)
		s.routeHists[path] = hist
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t := s.collector.StartRequest(method, path)
		sw := &statusWriter{ResponseWriter: w}
		// Finish recycles the trace, so the request ID is captured here and
		// the trace itself is never touched after the Finish call below.
		reqID := ""
		if t != nil {
			reqID = t.ID()
			sw.Header().Set("X-Request-Id", reqID)
			r = r.WithContext(obs.With(r.Context(), t.Root))
		}
		start := time.Now()
		handler(sw, r)
		d := time.Since(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		hist.Observe(d)
		s.collector.Finish(t, sw.status)
		s.logRequest(r, method, path, reqID, sw.status, d)
	})
}

// logRequest writes one access-log line. Levels keep routine traffic out of
// the way: 2xx/3xx log at Debug, slow requests at Info, client errors at
// Warn, server errors at Error.
func (s *Server) logRequest(r *http.Request, method, path, reqID string, status int, d time.Duration) {
	lvl := slog.LevelDebug
	switch {
	case status >= 500:
		lvl = slog.LevelError
	case status >= 400:
		lvl = slog.LevelWarn
	case reqID != "" && d >= s.collector.SlowThreshold():
		lvl = slog.LevelInfo
	}
	if !s.logger.Enabled(r.Context(), lvl) {
		return
	}
	attrs := []any{"method", method, "route", path, "status", status, "dur_us", d.Microseconds()}
	if reqID != "" {
		attrs = append(attrs, "request_id", reqID)
	}
	if id := r.PathValue("id"); id != "" {
		attrs = append(attrs, "session_id", id)
	}
	s.logger.Log(r.Context(), lvl, "request", attrs...)
}

// handleRequests serves the sampled recent traces, newest first.
func (s *Server) handleRequests(w http.ResponseWriter, _ *http.Request) {
	if s.collector == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("request tracing is disabled"))
		return
	}
	finished, kept, keptSlow := s.collector.Stats()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"finished":  finished,
		"kept":      kept,
		"kept_slow": keptSlow,
		"traces":    s.collector.Recent(),
	})
}

// handleRequestsSlow serves the slow-request ring (the slow-query log):
// every request over the slow threshold, newest first, each carrying its
// full span tree and — for SQL statements — the rendered plan text.
func (s *Server) handleRequestsSlow(w http.ResponseWriter, _ *http.Request) {
	if s.collector == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("request tracing is disabled"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"threshold_us": s.collector.SlowThreshold().Microseconds(),
		"traces":       s.collector.Slow(),
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close persists every resident session to disk (a no-op without a data
// dir) and releases their stores; sessions whose WAL is clean keep their
// current snapshot without a rewrite. Call it after draining in-flight
// requests; it returns the number of sessions made durable.
func (s *Server) Close() int {
	s.stopOnce.Do(func() { close(s.stop) })
	n := s.sessions.shutdown()
	if s.shipper != nil {
		// Shutdown checkpoints queued sync events behind it; give the standby
		// a bounded window to acknowledge them before letting go.
		s.shipper.Close(3 * time.Second)
	}
	return n
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*core.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.sessions.getCtx(r.Context(), id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", id))
		return nil, false
	}
	return sess, true
}

type fieldJSON struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Temporal  bool    `json:"temporal"`
	Immutable bool    `json:"immutable"`
	Unit      string  `json:"unit,omitempty"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	schema := s.sys.Schema()
	fields := make([]fieldJSON, schema.Dim())
	for i := 0; i < schema.Dim(); i++ {
		f := schema.Field(i)
		fields[i] = fieldJSON{
			Name: f.Name, Kind: f.Kind.String(), Min: f.Min, Max: f.Max,
			Temporal: f.Temporal, Immutable: f.Immutable, Unit: f.Unit,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"fields": fields})
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	type modelJSON struct {
		Time      int     `json:"time"`
		Label     string  `json:"label"`
		Model     string  `json:"model"`
		Threshold float64 `json:"threshold"`
	}
	models := s.sys.Models()
	out := make([]modelJSON, len(models))
	for t, m := range models {
		out[t] = modelJSON{Time: t, Label: s.sys.TimeLabel(t), Model: m.Model.Name(), Threshold: m.Threshold}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"models": out})
}

func (s *Server) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	schema := s.sys.Schema()
	var out []map[string]float64
	for _, p := range dataset.RejectedProfiles() {
		m := make(map[string]float64, schema.Dim())
		for i, name := range schema.Names() {
			m[name] = p[i]
		}
		out = append(out, m)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"profiles": out})
}

func (s *Server) handleQuestions(w http.ResponseWriter, _ *http.Request) {
	type qJSON struct {
		Kind        string `json:"kind"`
		Description string `json:"description"`
	}
	out := []qJSON{
		{core.QNoModification.String(), "What is the closest time point at which reapplying without modifications is approved?"},
		{core.QMinimalFeatures.String(), "What is the smallest set of features whose modification leads to approval?"},
		{core.QDominantFeature.String(), "Can modifying a single given feature lead to approval at all future time points?"},
		{core.QMinimalOverall.String(), "What is the minimal overall modification (l2 distance) that leads to approval?"},
		{core.QMaximalConfidence.String(), "Which modification, at which time point, maximizes approval confidence?"},
		{core.QTurningPoint.String(), "Is there a time point after which approval confidence can always exceed alpha?"},
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"questions": out})
}

type createSessionRequest struct {
	Profile     map[string]float64 `json:"profile"`
	Constraints []string           `json:"constraints"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	// A read-only server rejects before reading the body: creation is the
	// one endpoint that must write durably, and the Retry-After hint tells
	// the client when the recovery probe could have cleared the mode.
	if s.rejectDegraded(w) {
		return
	}
	// Read the (size-capped) body before taking an admission slot: a slot
	// held during the read would let slow-trickling clients pin every slot
	// and starve creation outright. Decoding costs microseconds against
	// the beam searches the slot actually guards.
	var req createSessionRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// Admission control: past the bound, reject with a retry hint instead
	// of piling goroutines onto the CPU behind the generators.
	select {
	case s.createSem <- struct{}{}:
		defer func() { <-s.createSem }()
	default:
		metricCreatesRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("session creation queue is full (%d pending); retry shortly", cap(s.createSem)))
		return
	}
	schema := s.sys.Schema()
	profile := make([]float64, schema.Dim())
	for i, name := range schema.Names() {
		v, ok := req.Profile[name]
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("profile missing attribute %q", name))
			return
		}
		profile[i] = v
	}
	for name := range req.Profile {
		if _, ok := schema.Index(name); !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("profile has unknown attribute %q", name))
			return
		}
	}
	prefs := constraints.NewSet()
	for _, src := range req.Constraints {
		c, err := constraints.Parse(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		prefs.Add(c)
	}
	// Session creation is the expensive step (T+1 beam searches); run it
	// under the request context so a disconnected client cancels the
	// generators instead of leaving them burning CPU.
	genCtx, genSpan := obs.Start(r.Context(), "session.generate")
	sess, err := s.sys.NewSessionContext(genCtx, profile, prefs)
	genSpan.End()
	if err != nil {
		if r.Context().Err() != nil {
			return // client is gone; nobody reads the response
		}
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// Count before registering: a failure here must not leave an orphaned
	// session occupying a cap slot under an ID the client never saw.
	n, err := sess.CandidateCount()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	_, addSpan := obs.Start(r.Context(), "session.persist")
	id, err := s.sessions.add(sess, req.Constraints)
	addSpan.End()
	if err != nil {
		// An out-of-space disk degrades the server instead of 500ing one
		// request: this creation failed, but the response says when to retry
		// and every later mutation short-circuits until the probe clears.
		s.notePersistError(err)
		if s.degraded.Load() {
			s.rejectDegraded(w)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"id":         id,
		"candidates": n,
	})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// inputsStmt is compiled once per process, like the canned questions.
var inputsStmt = sqldb.MustPrepare("SELECT * FROM temporal_inputs ORDER BY time")

func (s *Server) handleInputs(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	res, err := inputsStmt.QueryCtx(r.Context(), sess.DB())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resultJSON(res))
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	plan, err := sess.Plan()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"plan": plan})
}

type askRequest struct {
	Kind    string  `json:"kind"`
	Feature string  `json:"feature,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req askRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	kind, err := core.ParseQuestionKind(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	ins, err := sess.AskCtx(r.Context(), core.Question{Kind: kind, Feature: req.Feature, Alpha: req.Alpha})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.observeQuestionLatency(kind, time.Since(start))
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"kind":   req.Kind,
		"sql":    ins.SQL,
		"text":   ins.Text,
		"result": resultJSON(ins.Result),
	})
}

type sqlRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req sqlRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty query"))
		return
	}
	// Parse once: a malformed statement reports 422, a well-formed
	// non-SELECT is rejected with 400 (the endpoint is read-only by
	// contract), and a SELECT executes from the already-compiled form.
	parseStart := time.Now()
	st, err := sqldb.Prepare(req.Query)
	obs.FromContext(r.Context()).Event("sql.parse", time.Since(parseStart))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if !st.IsSelect() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("expert SQL endpoint accepts SELECT statements only"))
		return
	}
	// Cap row production inside execution (limit pushdown): the executor
	// stops at MaxSQLRows+1 produced rows, so a SELECT over a huge table
	// never materializes beyond the response cap. The one extra row is the
	// truncation signal.
	res, err := st.QueryCappedCtx(r.Context(), sess.DB(), s.cfg.MaxSQLRows+1)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	truncated := false
	if len(res.Rows) > s.cfg.MaxSQLRows {
		res.Rows = res.Rows[:s.cfg.MaxSQLRows]
		truncated = true
	}
	out := resultJSON(res)
	out["truncated"] = truncated
	writeJSON(w, http.StatusOK, out)
}

// resultJSON converts a query result to a JSON-friendly shape (NULL -> nil).
func resultJSON(res *sqldb.Result) map[string]interface{} {
	rows := make([][]interface{}, len(res.Rows))
	for i, row := range res.Rows {
		out := make([]interface{}, len(row))
		for j, v := range row {
			out[j] = valueJSON(v)
		}
		rows[i] = out
	}
	return map[string]interface{}{"columns": res.Columns, "rows": rows}
}

func valueJSON(v sqldb.Value) interface{} {
	switch v.Type() {
	case sqldb.IntType:
		i, _ := v.AsInt()
		return i
	case sqldb.FloatType:
		f, _ := v.AsFloat()
		return f
	case sqldb.TextType:
		s, _ := v.AsText()
		return s
	case sqldb.BoolType:
		b, _ := v.AsBool()
		return b
	default:
		return nil
	}
}
