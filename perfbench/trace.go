package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/core"
	"justintime/internal/drift"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
	"justintime/internal/sqldb/persist"
)

// span is one timed call made by the benchmark (or, for model calls, by the
// generator through the benchmark's model decorator). Spans of one visit
// share its request id.
type span struct {
	ID, Parent int64
	Name, Req  string
	start      time.Time
	dur        time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0  time.Time
	ids atomic.Int64
	// parent is the span model calls attach to; 0 records none. Only the
	// single-caller library phase sets it, so every model call under it
	// belongs to that span.
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines, times in microseconds from the
// start of the run.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		start := us(s.start.Sub(t.t0))
		if err := enc.Encode(map[string]interface{}{
			"id": s.ID, "parent": s.Parent, "name": s.Name, "req": s.Req,
			"start_us": start, "end_us": start + us(s.dur),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the median duration and median self time of the spans of
// one name; self time is the duration minus the part of it covered by child
// spans.
type spanSummary struct {
	Count  int     `json:"count"`
	P50Us  float64 `json:"p50_us"`
	SelfUs float64 `json:"self_p50_us"`
}

func (t *tracer) summarize() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs, selfs := map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], s.dur)
		selfs[s.Name] = append(selfs[s.Name], s.dur-covered(s, children[s.ID]))
	}
	out := make(map[string]spanSummary, len(durs))
	for name, ds := range durs {
		out[name] = spanSummary{len(ds), us(percentile(sorted(ds), 50)), us(percentile(sorted(selfs[name]), 50))}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's; children of one parent may overlap when they run on
// several goroutines.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	lo, hi := parent.start, parent.start.Add(parent.dur)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.start.Add(k.dur)
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// scrape reads the server's /metrics page into series → value.
func scrape(srv http.Handler) (map[string]float64, error) {
	code, body, _ := call(srv, "GET", "/metrics", nil)
	if code != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

func deltas(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// planShapes are the planner's plan shapes, as /metrics labels them.
var planShapes = []string{
	"full_scan", "index_scan", "index_intersection", "empty_probe", "top_k",
	"index_join", "hash_join", "nested_loop_join", "covering_scan", "index_union",
}

// probeEnv is a traced set-up: its System's models and its server's
// filesystem are decorated.
type probeEnv struct {
	*env
	models      *modelStats
	fs          *countingFS
	tr          *tracer
	datasetTook time.Duration
	driftTook   time.Duration
	drv         *loadgen
}

func newProbeEnv(w workload, in *inputs, exp []*expected, dir string, tr *tracer) (*probeEnv, error) {
	p := &probeEnv{models: &modelStats{}, fs: newCountingFS(), tr: tr}
	hooks := systemHooks{
		datasetDone: func(d time.Duration) { p.datasetTook = d },
		wrapGen: func(g drift.Generator) drift.Generator {
			return tracedGen{inner: g, st: p.models, tr: tr, took: &p.driftTook}
		},
	}
	// The executor re-plans any statement at or over the slow-request
	// threshold to log its plan, which would add timing-dependent plan
	// decisions to the counts; the decorated set-ups move the threshold
	// past any run.
	e, _, err := setUp(w, in, exp, dir, hooks, p.fs, time.Hour)
	if err != nil {
		return nil, err
	}
	p.env = e
	p.drv = &loadgen{w: w, in: in, exp: exp, srv: e.srv, ids: e.ids, created: map[int]string{}}
	return p, nil
}

// passCounts are the counts of a fixed, deterministic pass of visits.
type passCounts struct {
	t       *tally
	metrics map[string]float64
	fs      fsCounts
}

// passVisits is the length of the fixed pass: every profile once on
// journey, 200 visits of the skewed order on cold-reads.
func passVisits(w workload) int64 {
	if w.createPerVisit {
		return int64(w.profiles)
	}
	return 200
}

func (p *probeEnv) pass(n int64) (*passCounts, error) {
	m0, err := scrape(p.srv)
	if err != nil {
		return nil, err
	}
	f0 := p.fs.st.snapshot()
	// One client, so the visits run in a fixed order and the counts repeat
	// exactly.
	t := p.drv.runVisits(n, 1)
	m1, err := scrape(p.srv)
	if err != nil {
		return nil, err
	}
	return &passCounts{t: t, metrics: deltas(m1, m0), fs: p.fs.st.snapshot().sub(f0)}, nil
}

// libResult is what the library phase measured by calling core, candgen
// (through core), persist and the pager directly.
type libResult struct {
	sessions                      int
	newSession, plan, restore     []time.Duration
	open, fsyncs, pageReads       []time.Duration
	asks                          [][]time.Duration
	iterations, evaluations, pool int
	kept                          int
	calls, rows, busyNs           int64
	// restored are the first overheadProfiles sessions reopened from
	// paged storage, kept open with their stores for the overhead phase.
	restored []*core.Session
	stores   []*persist.Store
}

func (r *libResult) close() {
	for _, st := range r.stores {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing a library store:", err)
		}
	}
}

// libraryProfiles is how many profiles the library phase creates.
const libraryProfiles = 8

// library creates sessions straight through core.System.NewSessionContext
// with one caller, so every model call in between belongs to that session;
// asks and plans them through core; then persists each on paged storage,
// reopens it with persist.Open and core.System.RestoreSession, and checks
// the rehydrated answers against the references.
func (p *probeEnv) library(in *inputs, exp []*expected, refs []*core.Session, dir string, rep *report) (*libResult, error) {
	ctx := context.Background()
	r := &libResult{asks: make([][]time.Duration, len(questions))}
	c0, w0, b0 := p.models.calls.Load(), p.models.rows.Load(), p.models.busyNs.Load()
	n := libraryProfiles
	if n > len(in.profiles) {
		n = len(in.profiles)
	}
	for i := 0; i < n; i++ {
		req := fmt.Sprintf("library-%d", i)
		root := p.tr.newID()
		rootStart := time.Now()
		timed := func(name string, f func() error) (time.Duration, error) {
			t0 := time.Now()
			err := f()
			d := time.Since(t0)
			p.tr.add(span{Name: name, Parent: root, Req: req, start: t0, dur: d})
			return d, err
		}

		cid := p.tr.newID()
		p.tr.parent.Store(cid)
		t0 := time.Now()
		sess, err := librarySession(ctx, p.sys, in, i)
		d := time.Since(t0)
		p.tr.parent.Store(0)
		if err != nil {
			return nil, err
		}
		p.tr.add(span{ID: cid, Name: "core.new_session", Parent: root, Req: req, start: t0, dur: d})
		r.newSession = append(r.newSession, d)
		for _, st := range sess.GenStats() {
			r.iterations += st.Iterations
			r.evaluations += st.Evaluations
			r.pool += st.PoolSize
		}
		kept, err := sess.CandidateCount()
		if err != nil {
			return nil, err
		}
		r.kept += kept
		got, err := candidatesBytes(sess)
		if err != nil {
			return nil, err
		}
		want, err := candidatesBytes(refs[i])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			rep.fail("profile %d: candidates differ with the model decorator installed", i)
		}

		for k, q := range questions {
			d, err := timed("core.ask", func() error { _, err := sess.AskCtx(ctx, q); return err })
			if err != nil {
				return nil, err
			}
			r.asks[k] = append(r.asks[k], d)
		}
		d, err = timed("core.plan", func() error { _, err := sess.Plan(); return err })
		if err != nil {
			return nil, err
		}
		r.plan = append(r.plan, d)

		// Round trip through paged storage, as the server's cold path does.
		sdir := filepath.Join(dir, req)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		pool := pager.NewPool(4)
		if err := sess.DB().PageTableFS(p.fs, core.CandidatesTable, pool, filepath.Join(sdir, persist.SpillFileName(core.CandidatesTable))); err != nil {
			return nil, err
		}
		p.fs.st.takeTimings()
		var store *persist.Store
		if _, err := timed("persist.create", func() (err error) {
			store, err = persist.Create(sdir, sess.DB(), persist.Options{Sync: persist.SyncAlways, Pool: pool, FS: p.fs})
			return err
		}); err != nil {
			return nil, err
		}
		syncs, _ := p.fs.st.takeTimings()
		r.fsyncs = append(r.fsyncs, syncs...)
		if err := store.Close(); err != nil {
			return nil, err
		}
		pool = pager.NewPool(4)
		var db *sqldb.DB
		d, err = timed("persist.open", func() (err error) {
			db, store, err = persist.Open(sdir, persist.Options{Sync: persist.SyncAlways, Pool: pool, FS: p.fs})
			return err
		})
		if err != nil {
			return nil, err
		}
		r.open = append(r.open, d)
		var restored *core.Session
		d, err = timed("core.restore", func() (err error) {
			restored, err = p.sys.RestoreSession(db, in.profiles[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		r.restore = append(r.restore, d)
		p.fs.st.takeTimings()
		again, err := referenceOf(restored)
		if err != nil {
			return nil, err
		}
		_, reads := p.fs.st.takeTimings()
		r.pageReads = append(r.pageReads, reads...)
		if !sameAnswers(again, exp[i]) {
			rep.fail("profile %d: answers after persist.Open + RestoreSession differ from the hot answers", i)
		}
		if i < overheadProfiles {
			r.restored = append(r.restored, restored)
			r.stores = append(r.stores, store)
		} else if err := store.Close(); err != nil {
			return nil, err
		}
		p.tr.add(span{ID: root, Name: "library", Req: req, start: rootStart, dur: time.Since(rootStart)})
		r.sessions++
	}
	r.calls = p.models.calls.Load() - c0
	r.rows = p.models.rows.Load() - w0
	r.busyNs = p.models.busyNs.Load() - b0
	return r, nil
}

func candidatesBytes(sess *core.Session) ([]byte, error) {
	res, err := sess.SQL("SELECT * FROM candidates")
	if err != nil {
		return nil, err
	}
	return encode(resultJSON(res)), nil
}

func sameAnswers(a, b *expected) bool {
	if a.candidates != b.candidates || !bytes.Equal(a.inputs, b.inputs) || !bytes.Equal(a.plan, b.plan) {
		return false
	}
	for k := range a.asks {
		if !bytes.Equal(a.asks[k], b.asks[k]) {
			return false
		}
	}
	for k := range a.sql {
		if !bytes.Equal(a.sql[k], b.sql[k]) {
			return false
		}
	}
	return true
}

// runtimeSample reads the Go runtime's allocation, GC and CPU accounting.
type runtimeSample struct {
	allocBytes, gcCycles     uint64
	gcCPU, totalCPU, idleCPU float64
}

// add accumulates the difference after - before.
func (r *runtimeSample) add(after, before runtimeSample) {
	r.allocBytes += after.allocBytes - before.allocBytes
	r.gcCycles += after.gcCycles - before.gcCycles
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
	r.idleCPU += after.idleCPU - before.idleCPU
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64(), s[4].Value.Float64()}
}

// overheadSlices is how many slices each of the untraced and the traced
// phase is cut into.
const overheadSlices = 5

// overheadProfiles is how many profiles the overhead phase visits.
const overheadProfiles = 4

// overheadReps is how often the paired server/library phase repeats each
// operation.
const overheadReps = 25

// overhead times each read through ServeHTTP and the same operation called
// directly on the library reference session of the same profile, and
// returns the median over operations of the difference of their medians,
// per class; it also times sqldb's Prepare and each expert query directly. refs
// must use the same storage engine as the server's sessions.
func overhead(srv *probeEnv, ids map[int]string, refs []*core.Session) (map[string]float64, []time.Duration, [][]time.Duration, error) {
	ctx := context.Background()
	type pair struct{ server, direct []time.Duration }
	classes := map[string]map[string]*pair{"ask": {}, "sql": {}, "plan": {}}
	get := func(class, key string) *pair {
		p := classes[class][key]
		if p == nil {
			p = &pair{}
			classes[class][key] = p
		}
		return p
	}
	var prepares []time.Duration
	queries := make([][]time.Duration, len(sqlMenu))
	stmts := make([]*sqldb.Stmt, len(sqlMenu))
	for k, q := range sqlMenu {
		st, err := sqldb.Prepare(q.query)
		if err != nil {
			return nil, nil, nil, err
		}
		stmts[k] = st
	}
	for rep := 0; rep < overheadReps; rep++ {
		for p := 0; p < overheadProfiles; p++ {
			base := "/api/sessions/" + ids[p]
			ref := refs[p]
			for k, q := range questions {
				pr := get("ask", fmt.Sprint(p, k))
				_, _, d := call(srv.srv, "POST", base+"/ask", askBodies[k])
				pr.server = append(pr.server, d)
				t0 := time.Now()
				if _, err := ref.AskCtx(ctx, q); err != nil {
					return nil, nil, nil, err
				}
				pr.direct = append(pr.direct, time.Since(t0))
			}
			pr := get("plan", fmt.Sprint(p))
			_, _, d := call(srv.srv, "GET", base+"/plan", nil)
			pr.server = append(pr.server, d)
			t0 := time.Now()
			if _, err := ref.Plan(); err != nil {
				return nil, nil, nil, err
			}
			pr.direct = append(pr.direct, time.Since(t0))
			for k, q := range sqlMenu {
				pr := get("sql", fmt.Sprint(p, k))
				_, _, d := call(srv.srv, "POST", base+"/sql", sqlBodies[k])
				pr.server = append(pr.server, d)
				t0 := time.Now()
				st, err := sqldb.Prepare(q.query)
				if err != nil {
					return nil, nil, nil, err
				}
				t1 := time.Now()
				if _, err := st.QueryCappedCtx(ctx, ref.DB(), maxSQLRows+1); err != nil {
					return nil, nil, nil, err
				}
				t2 := time.Now()
				pr.direct = append(pr.direct, t2.Sub(t0))
				prepares = append(prepares, t1.Sub(t0))
				if _, err := stmts[k].QueryCappedCtx(ctx, ref.DB(), maxSQLRows+1); err != nil {
					return nil, nil, nil, err
				}
				queries[k] = append(queries[k], time.Since(t2))
			}
		}
	}
	out := map[string]float64{}
	for class, pairs := range classes {
		var diffs []float64
		for _, pr := range pairs {
			diffs = append(diffs, us(percentile(sorted(pr.server), 50))-us(percentile(sorted(pr.direct), 50)))
		}
		out[class] = median(diffs)
	}
	return out, prepares, queries, nil
}

// runTraced is the traced run. It measures, in order:
//  1. on decorated set-ups A and B built alike, a fixed pass of visits and
//     the library phase, whose counts must agree exactly between A and B;
//  2. the workload, alternately untraced on a plain set-up (the base of the
//     tracing overhead) and traced on A, each for half the time;
//  3. server overhead: paired ServeHTTP and direct library calls on A.
func runTraced(w workload, in *inputs, seed int64, measure time.Duration) (*report, error) {
	rep := newReport()
	h0, la0 := readHost(), loadavg()
	exp, refs, err := references(w, in)
	if err != nil {
		return nil, err
	}
	half := measure / 2

	plain, _, err := setUp(w, in, exp, runDir(w, seed, "plain"), systemHooks{}, nil, 0)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	pd := &loadgen{w: w, in: in, exp: exp, srv: plain.srv, ids: plain.ids}
	if t := pd.runVisits(warmupVisits(w), w.clients); t.failures() > 0 {
		rep.fail("warm-up: %d failed requests; first: %s", t.failures(), t.firstFail)
	}

	tr := newTracer()
	n := passVisits(w)
	a, err := newProbeEnv(w, in, exp, runDir(w, seed, "a"), tr)
	if err != nil {
		return nil, err
	}
	defer a.close()
	passA, err := a.pass(n)
	if err != nil {
		return nil, err
	}
	libA, err := a.library(in, exp, refs, filepath.Join(a.dir, "library"), rep)
	if err != nil {
		return nil, err
	}
	defer libA.close()
	b, err := newProbeEnv(w, in, exp, runDir(w, seed, "b"), newTracer())
	if err != nil {
		return nil, err
	}
	passB, err := b.pass(n)
	if err != nil {
		b.close()
		return nil, err
	}
	libB, err := b.library(in, exp, refs, filepath.Join(b.dir, "library"), rep)
	if libB != nil {
		libB.close()
	}
	b.close()
	if err != nil {
		return nil, err
	}
	checkDeterminism(rep, passA, passB, libA, libB)

	// The untraced and the traced phases alternate in short slices, so a
	// drift of the host's speed falls on both alike.
	var tus, tts []*tally
	var elu, elt, cpu time.Duration
	var rt runtimeSample
	for i := 0; i < overheadSlices; i++ {
		t, el := pd.run(half / overheadSlices)
		tus, elu = append(tus, t), elu+el
		a.drv.tr = tr
		r0, cpu0 := readRuntime(), cpuTime()
		t, el = a.drv.run(half / overheadSlices)
		rt.add(readRuntime(), r0)
		cpu += cpuTime() - cpu0
		a.drv.tr = nil
		tts, elt = append(tts, t), elt+el
	}
	tu, tt := merge(tus), merge(tts)
	untraced := float64(tu.attempted()) / elu.Seconds()
	traced := float64(tt.attempted()) / elt.Seconds()
	for _, t := range []*tally{tu, passA.t, passB.t, tt} {
		if t.failures() > 0 {
			rep.fail("traced run: %d failed requests; first: %s", t.failures(), t.firstFail)
		}
	}
	ids := a.drv.created
	if !w.createPerVisit {
		ids = map[int]string{}
		for i, id := range a.ids {
			ids[i] = id
		}
	}
	direct := refs
	if w.poolPages > 0 {
		direct = libA.restored
	}
	over, prepares, queries, err := overhead(a, ids, direct)
	if err != nil {
		return nil, err
	}
	h1, la1 := readHost(), loadavg()

	rep.Attempted = tu.attempted() + passA.t.attempted() + passB.t.attempted() + tt.attempted()
	rep.Failed = tu.failures() + passA.t.failures() + passB.t.failures() + tt.failures()

	// server
	for class, v := range over {
		rep.set("server.overhead_us."+class, "us", v)
	}
	// Requests served per route in the traced phase; failures in any phase.
	for op := 0; op < nOps; op++ {
		rep.set("server.requests."+opNames[op], "count", float64(tt.requests[op]))
		failed := tu.failed[op] + passA.t.failed[op] + passB.t.failed[op] + tt.failed[op]
		rep.set("server.failed."+opNames[op], "count", float64(failed))
	}
	// sessions
	m := passA.metrics
	rep.set("sessions.rehydrations", "count", m["jitd_rehydrations_total"])
	rep.set("sessions.rehydrations_coalesced", "count", m["jitd_rehydrations_coalesced_total"])
	rep.set("sessions.evictions_lru", "count", m["jitd_evictions_lru_total"])
	rep.set("sessions.checkpoints", "count", m["jitd_checkpoints_total"])
	// core
	rep.set("core.new_session_ms", "ms", ms(percentile(sorted(libA.newSession), 50)))
	for k, q := range questions {
		rep.set("core.ask_us."+q.Kind.String(), "us", us(percentile(sorted(libA.asks[k]), 50)))
	}
	rep.set("core.plan_us", "us", us(percentile(sorted(libA.plan), 50)))
	rep.set("core.restore_ms", "ms", ms(percentile(sorted(libA.restore), 50)))
	// candgen
	spans := tr.summarize()
	ls := float64(libA.sessions)
	rep.set("candgen.iterations", "count", float64(libA.iterations)/ls)
	rep.set("candgen.evaluations", "count", float64(libA.evaluations)/ls)
	rep.set("candgen.pool", "count", float64(libA.pool)/ls)
	rep.set("candgen.kept_per_kevaluation", "count", 1000*float64(libA.kept)/float64(libA.evaluations))
	rep.set("candgen.self_ms", "ms", spans["core.new_session"].SelfUs/1000)
	// mlmodel
	rep.set("mlmodel.calls", "count", float64(libA.calls)/ls)
	rep.set("mlmodel.rows", "count", float64(libA.rows)/ls)
	rep.set("mlmodel.busy_ms", "ms", float64(libA.busyNs)/1e6/ls)
	rep.set("mlmodel.ns_per_row", "ns", float64(libA.busyNs)/float64(libA.rows))
	// sqldb
	rep.set("sqldb.prepare_us", "us", us(percentile(sorted(prepares), 50)))
	for k, q := range sqlMenu {
		rep.set("sqldb.query_us."+q.name, "us", us(percentile(sorted(queries[k]), 50)))
	}
	hits, misses := m[`jitd_plan_cache_total{event="hits"}`], m[`jitd_plan_cache_total{event="misses"}`]
	rep.set("sqldb.plan_cache_hit_ratio", "share", ratio(hits, hits+misses))
	for _, s := range planShapes {
		rep.set("sqldb.plan_shapes."+s, "count", m[`jitd_plan_shapes_total{shape="`+s+`"}`])
	}
	// persist
	creates := float64(passA.t.requests[opCreate])
	rep.set("persist.fsyncs_per_create", "count", ratio(float64(passA.fs.fsyncs), creates))
	rep.set("persist.bytes_written_per_create", "bytes", ratio(float64(passA.fs.written), creates))
	rep.set("persist.fsync_us_p50", "us", us(percentile(sorted(libA.fsyncs), 50)))
	rep.set("persist.bytes_read_per_resume", "bytes", ratio(float64(passA.fs.read), m["jitd_rehydrations_total"]))
	rep.set("persist.open_ms", "ms", ms(percentile(sorted(libA.open), 50)))
	// pager
	ph, pm := m["jitd_pool_hits_total"], m["jitd_pool_misses_total"]
	ops := float64(passA.t.attempted())
	rep.set("pager.hit_ratio", "share", ratio(ph, ph+pm))
	rep.set("pager.misses_per_op", "count", pm/ops)
	rep.set("pager.evictions_per_op", "count", m["jitd_pool_evictions_total"]/ops)
	rep.set("pager.writebacks", "count", m["jitd_pool_dirty_writebacks_total"])
	rep.set("pager.fault_us_p50", "us", us(percentile(sorted(libA.pageReads), 50)))
	// set-up layers
	rep.set("drift.generate_s", "s", a.driftTook.Seconds())
	rep.set("dataset.generate_s", "s", a.datasetTook.Seconds())
	// runtime
	tops := float64(tt.attempted())
	rep.set("runtime.alloc_kb_per_op", "KiB", float64(rt.allocBytes)/1024/tops)
	rep.set("runtime.gc_cycles_per_op", "count", float64(rt.gcCycles)/tops)
	rep.set("runtime.gc_cpu_share", "share", ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU))
	// host
	rep.set("host.steal_share", "share", stealShare(h0, h1))
	rep.set("host.loadavg", "load", (la0+la1)/2)
	// tails of the traced phase, kept as diagnostics
	_, vt := tail(sorted(tt.visits))
	_, at := tail(sorted(tt.lat[opAsk]))
	rep.set("tail.visit_ms", "ms", ms(vt))
	rep.set("tail.ask_us", "us", us(at))
	rep.Details["latency"] = latencyDetails(tt)
	// tracing overhead
	rep.set("trace.ops_per_s_untraced", "1/s", untraced)
	rep.set("trace.ops_per_s_traced", "1/s", traced)
	rep.set("trace.overhead_share", "share", 1-traced/untraced)

	rep.Details["spans"] = spans
	rep.Details["traced_cpu_ms_per_op"] = ms(cpu) / tops
	rep.Details["pass_visits"] = n
	rep.Details["sizes"] = sizes(w)
	spanFile := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	rep.Details["span_file"] = spanFile
	return rep, tr.write(spanFile)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkDeterminism asserts that two set-ups built from the same seed did
// exactly the same work.
func checkDeterminism(rep *report, a, b *passCounts, la, lb *libResult) {
	same := func(what string, x, y float64) {
		if x != y {
			rep.fail("determinism: %s differs between two set-ups of the same seed: %v vs %v", what, x, y)
		}
	}
	same("candgen.evaluations", float64(la.evaluations), float64(lb.evaluations))
	same("mlmodel.rows", float64(la.rows), float64(lb.rows))
	same("sessions.rehydrations", a.metrics["jitd_rehydrations_total"], b.metrics["jitd_rehydrations_total"])
	same("persist bytes written", float64(a.fs.written), float64(b.fs.written))
	for _, s := range planShapes {
		key := `jitd_plan_shapes_total{shape="` + s + `"}`
		same("sqldb.plan_shapes."+s, a.metrics[key], b.metrics[key])
	}
	rep.Details["determinism"] = map[string]interface{}{
		"candgen.evaluations":   []int{la.evaluations, lb.evaluations},
		"mlmodel.rows":          []int64{la.rows, lb.rows},
		"sessions.rehydrations": []float64{a.metrics["jitd_rehydrations_total"], b.metrics["jitd_rehydrations_total"]},
		"persist.bytes_written": []int64{a.fs.written, b.fs.written},
	}
}
