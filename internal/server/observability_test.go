package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"justintime/internal/obs"
)

// quietLogger keeps the access log (Info for slow requests — and with a 1ns
// threshold everything is slow) out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// slowTraces fetches and decodes /debug/requests/slow.
func slowTraces(t *testing.T, srv *httptest.Server) []obs.TraceSnapshot {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/requests/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests/slow: %d", resp.StatusCode)
	}
	var out struct {
		ThresholdUS int64               `json:"threshold_us"`
		Traces      []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

// findTrace returns the newest slow trace matching method+route, or nil.
func findTrace(traces []obs.TraceSnapshot, method, route string) *obs.TraceSnapshot {
	for i := range traces {
		if traces[i].Method == method && traces[i].Route == route {
			return &traces[i]
		}
	}
	return nil
}

// TestSlowRequestTraceTree is the PR's acceptance flow: with durability and
// paged storage on and a 1ns slow threshold, a request against an evicted
// session must land in /debug/requests/slow carrying the full span tree —
// server route → session.get → session.rehydrate, the SQL layer's sql.query
// with plan shape / cache / row attrs and rendered plan text, the pager's
// fault attribution, and the eviction's background persist.checkpoint trace.
func TestSlowRequestTraceTree(t *testing.T) {
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{
		DataDir:          t.TempDir(),
		BufferPoolPages:  16,
		MaxSessions:      1,
		SlowRequest:      time.Nanosecond, // everything is slow: the test seam
		TraceSampleEvery: 1,
		Logger:           quietLogger(),
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	idA := createSession(t, srv, nil)
	// Dirty A's WAL so its eviction has a checkpoint to fold (and therefore
	// a background trace to record).
	sessA, ok := h.sessions.get(idA)
	if !ok {
		t.Fatal("session A missing right after creation")
	}
	if _, err := sessA.DB().Exec("UPDATE candidates SET p = p WHERE time < 0"); err != nil {
		t.Fatal(err)
	}
	_ = createSession(t, srv, nil) // cap of 1: evicts + checkpoints A

	// First touch after eviction: rehydrates from disk, then a full scan
	// that must fault its pages back in through the pool.
	// SELECT * cannot be answered from a covering index, so the executor
	// must walk the paged store itself (a tracked full scan).
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+idA+"/sql",
		map[string]string{"query": "SELECT * FROM candidates"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction sql: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response is missing the X-Request-Id header")
	}
	// An indexed question on the now-resident session: the plan event must
	// carry the planner's shape and cache attributes.
	if code, _ := askText(t, srv, idA, "no-modification"); code != http.StatusOK {
		t.Fatalf("ask after rehydration: %d", code)
	}

	traces := slowTraces(t, srv)

	// The rehydrating SQL request's tree.
	tr := findTrace(traces, "POST", "/api/sessions/{id}/sql")
	if tr == nil {
		t.Fatal("no slow trace recorded for the SQL request")
	}
	get := tr.Root.Find("session.get")
	if get == nil {
		t.Fatal("session.get span missing from the SQL trace")
	}
	if got := get.AttrVal("result"); got != "rehydrate" {
		t.Fatalf("session.get result = %q, want rehydrate", got)
	}
	if get.Find("session.rehydrate") == nil {
		t.Fatal("session.rehydrate span missing under session.get")
	}
	if get.AttrVal("lock_wait_us") == "" {
		t.Fatal("session.get is missing the lock_wait_us attr")
	}
	if tr.Root.Find("sql.parse") == nil {
		t.Fatal("sql.parse event missing from the SQL trace")
	}
	q := tr.Root.Find("sql.query")
	if q == nil {
		t.Fatal("sql.query span missing from the SQL trace")
	}
	if !strings.Contains(q.AttrVal("stmt"), "SELECT * FROM candidates") {
		t.Fatalf("sql.query stmt attr = %q", q.AttrVal("stmt"))
	}
	if n, _ := strconv.Atoi(q.AttrVal("rows")); n < 1 {
		t.Fatalf("sql.query rows attr = %q, want >= 1", q.AttrVal("rows"))
	}
	plan := q.Find("plan")
	if plan == nil {
		t.Fatal("plan event missing from sql.query")
	}
	if got := plan.AttrVal("plan_shape"); got != "full_scan" {
		t.Fatalf("plan_shape = %q, want full_scan", got)
	}
	if q.AttrVal("plan_text") == "" {
		t.Fatal("slow sql.query is missing the rendered plan_text")
	}
	faults := q.Find("pager.faults")
	if faults == nil {
		t.Fatal("pager.faults event missing: the post-rehydration scan must fault pages in")
	}
	if n, _ := strconv.Atoi(faults.AttrVal("faults")); n < 1 {
		t.Fatalf("pager.faults faults attr = %q, want >= 1", faults.AttrVal("faults"))
	}

	// The ask request's tree: planner attrs on the canned question's query.
	ask := findTrace(traces, "POST", "/api/sessions/{id}/ask")
	if ask == nil {
		t.Fatal("no slow trace recorded for the ask request")
	}
	// A resident hit annotates the request's root span directly instead of
	// opening a session.get child.
	if got := ask.Root.AttrVal("session_result"); got != "hit" {
		t.Fatalf("ask session_result = %q, want hit (already resident)", got)
	}
	aq := ask.Root.Find("sql.query")
	if aq == nil {
		t.Fatal("sql.query span missing from the ask trace")
	}
	// Every scan decision is a "plan" event recording the chosen shape.
	ap := aq.Find("plan")
	if ap == nil {
		t.Fatal("ask trace's sql.query span has no plan event")
	}
	if ap.AttrVal("plan_shape") == "" {
		t.Fatal("ask trace's plan event has no plan_shape attr")
	}

	// The eviction's background checkpoint trace, with the durability
	// layer's spans.
	cp := findTrace(traces, "bg", "session.checkpoint")
	if cp == nil {
		t.Fatal("no background trace recorded for the eviction checkpoint")
	}
	if cp.Root.AttrVal("session_id") != idA {
		t.Fatalf("checkpoint trace session_id = %q, want %s", cp.Root.AttrVal("session_id"), idA)
	}
	pc := cp.Root.Find("persist.checkpoint")
	if pc == nil {
		t.Fatal("persist.checkpoint span missing from the checkpoint trace")
	}
	if pc.AttrVal("wal_bytes") == "" || pc.AttrVal("wal_bytes") == "0" {
		t.Fatalf("persist.checkpoint wal_bytes = %q, want > 0 (the WAL was dirtied)", pc.AttrVal("wal_bytes"))
	}
	if pc.Find("snapshot.write") == nil || pc.Find("wal.reset") == nil {
		t.Fatal("persist.checkpoint is missing its snapshot.write / wal.reset phases")
	}
}

// TestRecentRingSampling checks the fast-request path end to end over HTTP:
// with a high slow threshold and 1-in-1 sampling every request lands in the
// recent ring, and /debug/requests serves it newest first.
func TestRecentRingSampling(t *testing.T) {
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{SlowRequest: time.Hour, TraceSampleEvery: 1, Logger: quietLogger()})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	for i := 0; i < 3; i++ {
		if resp, _ := getJSON(t, srv.URL+"/api/questions"); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /api/questions: %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Finished uint64              `json:"finished"`
		Kept     uint64              `json:"kept"`
		Traces   []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Finished != 3 || out.Kept != 3 {
		t.Fatalf("finished=%d kept=%d, want 3/3 at 1-in-1 sampling", out.Finished, out.Kept)
	}
	if len(out.Traces) != 3 {
		t.Fatalf("recent ring holds %d traces, want 3", len(out.Traces))
	}
	for _, snap := range out.Traces {
		if snap.Route != "/api/questions" || snap.Status != http.StatusOK {
			t.Fatalf("unexpected trace in recent ring: %+v", snap)
		}
	}
}

var (
	bucketLineRe = regexp.MustCompile(`^([a-z_]+)_bucket\{(.*)\} (\d+)$`)
	countLineRe  = regexp.MustCompile(`^([a-z_]+)_count(?:\{(.*)\})? (\d+)$`)
	leRe         = regexp.MustCompile(`(?:^|,)le="([^"]+)"`)
)

// TestMetricsExposition scrapes /metrics after real traffic and validates
// the exposition: every histogram series has numerically increasing le
// bounds, non-decreasing cumulative buckets, a +Inf bucket, and a _count
// equal to it; and the families the dashboards depend on are present.
func TestMetricsExposition(t *testing.T) {
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{Logger: quietLogger()})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	id := createSession(t, srv, nil)
	if code, _ := askText(t, srv, id, "no-modification"); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	type series struct {
		les     []float64
		counts  []int64
		inf     int64
		hasInf  bool
		count   int64
		hasCnt  bool
		nBucket int
	}
	all := map[string]*series{}
	get := func(key string) *series {
		s, ok := all[key]
		if !ok {
			s = &series{}
			all[key] = s
		}
		return s
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if m := bucketLineRe.FindStringSubmatch(line); m != nil {
			le := leRe.FindStringSubmatch(m[2])
			if le == nil {
				t.Fatalf("bucket line without le label: %s", line)
			}
			key := m[1] + "|" + leRe.ReplaceAllString(m[2], "")
			v, _ := strconv.ParseInt(m[3], 10, 64)
			s := get(key)
			s.nBucket++
			if le[1] == "+Inf" {
				s.inf, s.hasInf = v, true
			} else {
				f, err := strconv.ParseFloat(le[1], 64)
				if err != nil {
					t.Fatalf("unparseable le %q in %s", le[1], line)
				}
				s.les = append(s.les, f)
				s.counts = append(s.counts, v)
			}
			continue
		}
		if m := countLineRe.FindStringSubmatch(line); m != nil {
			s := get(m[1] + "|" + m[2])
			s.count, _ = strconv.ParseInt(m[3], 10, 64)
			s.hasCnt = true
		}
	}
	if len(all) == 0 {
		t.Fatal("no histogram series found in /metrics")
	}
	for key, s := range all {
		if !s.hasInf {
			t.Errorf("series %s has no +Inf bucket", key)
			continue
		}
		if !s.hasCnt {
			t.Errorf("series %s has no _count", key)
			continue
		}
		if s.count != s.inf {
			t.Errorf("series %s: _count=%d != +Inf bucket %d", key, s.count, s.inf)
		}
		prevLe := -1.0
		prevCount := int64(0)
		for i := range s.les {
			if s.les[i] <= prevLe {
				t.Errorf("series %s: le bounds not increasing at %g", key, s.les[i])
			}
			if s.counts[i] < prevCount {
				t.Errorf("series %s: cumulative count decreased at le=%g", key, s.les[i])
			}
			prevLe, prevCount = s.les[i], s.counts[i]
		}
		if s.inf < prevCount {
			t.Errorf("series %s: +Inf bucket %d below last bucket %d", key, s.inf, prevCount)
		}
	}

	// The ask above must have landed in its route's histogram.
	askKey := `jitd_http_request_duration_seconds|route="/api/sessions/{id}/ask"`
	if s, ok := all[askKey]; !ok || s.count < 1 {
		t.Fatalf("ask route histogram missing or empty (series: %v)", askKey)
	}
	qKey := `jitd_question_duration_seconds|kind="no-modification"`
	if s, ok := all[qKey]; !ok || s.count < 1 {
		t.Fatalf("question histogram missing or empty (series: %v)", qKey)
	}
	for _, want := range []string{
		"jitd_sessions_live", "jitd_traces_finished_total",
		"jitd_plan_shapes_total{shape=",
		"jitd_wal_fsync_duration_seconds_bucket", "jitd_pool_fault_duration_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}
