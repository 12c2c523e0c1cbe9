package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"justintime"
	"justintime/internal/candgen"
	"justintime/internal/constraints"
	"justintime/internal/core"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/fault"
	"justintime/internal/server"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/persist"
)

// The model configuration is jitd's default (and the paper's demo): 12 eras
// of 1200 rows, T = 3, top-8 candidates, seed 1, one domain rule. The
// workload seed never reaches it; it only shapes the inputs.
const (
	modelSeed  = 1
	eras       = 12
	rowsPerEra = 1200
	horizon    = 3
	topK       = 8
	// sessionTTL is far longer than any run, so residency is decided by
	// the LRU cap and the visit order alone.
	sessionTTL = 24 * time.Hour
)

// systemHooks lets the traced run time the set-up layers and decorate the
// generated models; nil fields are skipped.
type systemHooks struct {
	datasetDone func(time.Duration)
	wrapGen     func(drift.Generator) drift.Generator
}

// buildSystem generates the synthetic history and trains the future models,
// exactly as jitd does at start-up.
func buildSystem(method string, hooks systemHooks) (*core.System, error) {
	t0 := time.Now()
	data, err := dataset.Generate(dataset.Config{Seed: modelSeed, Eras: eras, RowsPerEra: rowsPerEra, LabelNoise: 0.04, DriftScale: 1})
	if err != nil {
		return nil, err
	}
	if hooks.datasetDone != nil {
		hooks.datasetDone(time.Since(t0))
	}
	gen, err := justintime.GeneratorByName(method, modelSeed)
	if err != nil {
		return nil, err
	}
	if hooks.wrapGen != nil {
		gen = hooks.wrapGen(gen)
	}
	domain := constraints.NewSet(constraints.MustParse("amount <= income * 0.8"))
	cg := candgen.DefaultConfig()
	cg.K = topK
	cg.Seed = modelSeed
	return core.NewSystem(core.Config{
		Schema:     dataset.LoanSchema(),
		T:          horizon,
		DeltaYears: 1,
		Generator:  gen,
		Domain:     domain,
		CandGen:    cg,
		BaseYear:   dataset.BaseYear + eras - 1,
	}, justintime.HistoryFromDataset(data))
}

// quietLogger drops the server's routine logs; errors still reach stderr.
var quietLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

// newServer configures the server the way the workload asks: a data
// directory with WAL sync "always" (jitd's default), a session TTL far
// longer than the run, and optionally paged storage. slow is the
// slow-request threshold; 0 keeps jitd's default.
func newServer(w workload, sys *core.System, dir string, fsys fault.FS, slow time.Duration) *server.Server {
	return server.NewWithConfig(sys, server.Config{
		MaxSessions:     w.maxSessions,
		SessionTTL:      sessionTTL,
		DataDir:         dir,
		WALSync:         persist.SyncAlways,
		BufferPoolPages: w.poolPages,
		Logger:          quietLogger,
		FS:              fsys,
		SlowRequest:     slow,
	})
}

// expected holds the reference response bodies of one profile, computed
// through the library, byte for byte as the server must send them.
type expected struct {
	candidates int
	inputs     []byte
	asks       [][]byte
	plan       []byte
	sql        [][]byte
}

// encode reproduces the server's JSON encoding of a response body.
func encode(v interface{}) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err) // only NaN/Inf can fail, and the references hold none
	}
	return b.Bytes()
}

// resultJSON is the documented wire shape of a query result.
func resultJSON(res *sqldb.Result) map[string]interface{} {
	rows := make([][]interface{}, len(res.Rows))
	for i, row := range res.Rows {
		out := make([]interface{}, len(row))
		for j, v := range row {
			switch v.Type() {
			case sqldb.IntType:
				out[j], _ = v.AsInt()
			case sqldb.FloatType:
				out[j], _ = v.AsFloat()
			case sqldb.TextType:
				out[j], _ = v.AsText()
			case sqldb.BoolType:
				out[j], _ = v.AsBool()
			}
		}
		rows[i] = out
	}
	return map[string]interface{}{"columns": res.Columns, "rows": rows}
}

// maxSQLRows is the server's default expert-SQL row cap.
const maxSQLRows = 10000

// librarySession creates profile i's session directly through core.
func librarySession(ctx context.Context, sys *core.System, in *inputs, i int) (*core.Session, error) {
	set := constraints.NewSet()
	for _, src := range in.constraints[i] {
		c, err := constraints.Parse(src)
		if err != nil {
			return nil, err
		}
		set.Add(c)
	}
	return sys.NewSessionContext(ctx, in.profiles[i], set)
}

// referenceOf computes every response body a visit to sess can receive.
func referenceOf(sess *core.Session) (*expected, error) {
	e := &expected{}
	var err error
	if e.candidates, err = sess.CandidateCount(); err != nil {
		return nil, err
	}
	res, err := sess.SQL("SELECT * FROM temporal_inputs ORDER BY time")
	if err != nil {
		return nil, err
	}
	e.inputs = encode(resultJSON(res))
	for _, q := range questions {
		ins, err := sess.Ask(q)
		if err != nil {
			return nil, err
		}
		e.asks = append(e.asks, encode(map[string]interface{}{
			"kind": q.Kind.String(), "sql": ins.SQL, "text": ins.Text, "result": resultJSON(ins.Result),
		}))
	}
	plan, err := sess.Plan()
	if err != nil {
		return nil, err
	}
	e.plan = encode(map[string]interface{}{"plan": plan})
	for _, q := range sqlMenu {
		st, err := sqldb.Prepare(q.query)
		if err != nil {
			return nil, err
		}
		res, err := st.QueryCapped(sess.DB(), maxSQLRows+1)
		if err != nil {
			return nil, err
		}
		out := resultJSON(res)
		out["truncated"] = false
		e.sql = append(e.sql, encode(out))
	}
	return e, nil
}

// references builds a System of its own and computes every profile's
// reference bodies; it also returns the library sessions.
func references(w workload, in *inputs) ([]*expected, []*core.Session, error) {
	sys, err := buildSystem(w.method, systemHooks{})
	if err != nil {
		return nil, nil, err
	}
	exp := make([]*expected, len(in.profiles))
	sessions := make([]*core.Session, len(in.profiles))
	for i := range in.profiles {
		sess, err := librarySession(context.Background(), sys, in, i)
		if err != nil {
			return nil, nil, fmt.Errorf("reference for profile %d: %w", i, err)
		}
		if exp[i], err = referenceOf(sess); err != nil {
			return nil, nil, fmt.Errorf("reference for profile %d: %w", i, err)
		}
		sessions[i] = sess
	}
	return exp, sessions, nil
}

// createBody is the POST /api/sessions body of profile i.
func createBody(in *inputs, i int) []byte {
	names := dataset.LoanSchema().Names()
	prof := make(map[string]float64, len(names))
	for j, name := range names {
		prof[name] = in.profiles[i][j]
	}
	b, _ := json.Marshal(map[string]interface{}{"profile": prof, "constraints": in.constraints[i]})
	return b
}

// call drives one request through the handler in-process and times it.
func call(h http.Handler, method, path string, body []byte) (int, []byte, time.Duration) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

// createSession posts profile i and returns the new session's id after
// checking the status and the candidate count.
func createSession(h http.Handler, in *inputs, exp []*expected, i int) (string, time.Duration, error) {
	code, body, d := call(h, "POST", "/api/sessions", createBody(in, i))
	if code != http.StatusCreated {
		return "", d, fmt.Errorf("create profile %d: status %d: %s", i, code, body)
	}
	var out struct {
		ID         string `json:"id"`
		Candidates int    `json:"candidates"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
		return "", d, fmt.Errorf("create profile %d: bad body %q", i, body)
	}
	if out.Candidates != exp[i].candidates {
		return "", d, fmt.Errorf("create profile %d: %d candidates, reference has %d", i, out.Candidates, exp[i].candidates)
	}
	return out.ID, d, nil
}

// env is one set-up: a System, its server, and the read workloads'
// sessions.
type env struct {
	sys *core.System
	srv *server.Server
	dir string
	// ids maps profile index to session id (read workloads only).
	ids []string
	// heapBase is the live heap once the server exists, before any session.
	heapBase uint64
}

func (e *env) close() {
	e.srv.Close()
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp builds one env and returns the set-up time: training the models,
// starting the server and, on read workloads, creating every session of
// the working set through the API. The heap measurement in between is not
// counted.
func setUp(w workload, in *inputs, exp []*expected, dir string, hooks systemHooks, fsys fault.FS, slow time.Duration) (*env, time.Duration, error) {
	t0 := time.Now()
	sys, err := buildSystem(w.method, hooks)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	e := &env{sys: sys, srv: newServer(w, sys, dir, fsys, slow), dir: dir}
	d := time.Since(t0)
	e.heapBase = liveHeap()
	if w.createPerVisit {
		return e, d, nil
	}
	t1 := time.Now()
	e.ids = make([]string, len(in.profiles))
	for i := range in.profiles {
		if e.ids[i], _, err = createSession(e.srv, in, exp, i); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	return e, d + time.Since(t1), nil
}

// workDir is where runs keep their data directories and results, relative
// to the checkout the benchmark runs in.
const workDir = ".bench_build"

func runDir(w workload, seed int64, tag string) string {
	return filepath.Join(workDir, "run", fmt.Sprintf("%s-seed%d-%d-%s", w.name, seed, os.Getpid(), tag))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// sessionsOnDisk counts the session directories under a server data dir.
func sessionsOnDisk(dir string) (int, error) {
	ents, err := os.ReadDir(filepath.Join(dir, "sessions"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() {
			n++
		}
	}
	return n, nil
}
