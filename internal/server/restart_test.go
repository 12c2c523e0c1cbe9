package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"justintime/internal/sqldb/persist"
)

// orderedCandidatesSQL gives a deterministic total order for row-for-row
// comparison (feature columns break any (time, diff, gap, p) ties).
const orderedCandidatesSQL = "SELECT * FROM candidates ORDER BY time, diff, gap, p"

func fetchCandidates(t *testing.T, srv *httptest.Server, id string) []string {
	t.Helper()
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+id+"/sql",
		map[string]string{"query": orderedCandidatesSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql: %d %v", resp.StatusCode, out)
	}
	rows, _ := out["rows"].([]interface{})
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(enc) // order-independent row-for-row comparison
	return enc
}

func askText(t *testing.T, srv *httptest.Server, id, kind string) (int, string) {
	t.Helper()
	resp, out := postJSON(t, srv.URL+"/api/sessions/"+id+"/ask",
		map[string]interface{}{"kind": kind, "feature": "income", "alpha": 0.7})
	text, _ := out["text"].(string)
	return resp.StatusCode, text
}

var allKinds = []string{
	"no-modification", "minimal-features-set", "dominant-feature",
	"minimal-overall-modification", "maximal-confidence", "turning-point",
}

// TestRestartRecoversSession is the PR's acceptance test: stop a server the
// way jitd's SIGTERM path does (drain, checkpoint, close stores), start a
// fresh one over the same data dir, and the old session ID must answer every
// canned question from disk — no regeneration, and a candidates database
// identical row for row.
func TestRestartRecoversSession(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	cfg := Config{DataDir: dataDir}

	h1 := NewWithConfig(sys, cfg)
	srv1 := httptest.NewServer(h1)
	id := createSession(t, srv1, []string{"income <= old(income) * 1.5"})

	preRows := fetchCandidates(t, srv1, id)
	if len(preRows) == 0 {
		t.Fatal("no candidates generated")
	}
	preAnswers := make(map[string]string, len(allKinds))
	for _, kind := range allKinds {
		code, text := askText(t, srv1, id, kind)
		if code != http.StatusOK {
			t.Fatalf("pre-restart ask %s: %d", kind, code)
		}
		preAnswers[kind] = text
	}

	// The jitd shutdown sequence: drain requests, then checkpoint all.
	if n := h1.Close(); n != 1 {
		t.Fatalf("checkpointed %d sessions on shutdown, want 1", n)
	}
	srv1.Close()

	// "Relaunch" over the same data dir.
	preRehydrations := metricRehydrations.Value()
	h2 := NewWithConfig(sys, cfg)
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	defer h2.Close()

	for _, kind := range allKinds {
		code, text := askText(t, srv2, id, kind)
		if code != http.StatusOK {
			t.Fatalf("post-restart ask %s: %d", kind, code)
		}
		if text != preAnswers[kind] {
			t.Errorf("post-restart %s answer drifted:\n  pre:  %s\n  post: %s", kind, preAnswers[kind], text)
		}
	}
	if postRows := fetchCandidates(t, srv2, id); !reflect.DeepEqual(preRows, postRows) {
		t.Fatal("recovered candidates database is not row-for-row identical")
	}
	if got := metricRehydrations.Value() - preRehydrations; got != 1 {
		t.Fatalf("rehydrations delta = %d, want 1 (one disk load, no regeneration)", got)
	}
}

// TestEvictionCheckpointsAndRehydrates drives the TTL and LRU paths: an
// evicted session leaves memory (and bumps the right counter) but comes
// back from disk on the next request instead of 404ing.
func TestEvictionCheckpointsAndRehydrates(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{DataDir: dataDir, MaxSessions: 1, SessionTTL: time.Minute})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	// The test owns every eviction (explicit sweepAll / cap pressure); the
	// background sweeper would race it for TTL claims once the clock jumps.
	h.sessions.stopBackgroundSweeps()
	advance := installFakeClock(h.sessions, time.Unix(1000, 0))

	idA := createSession(t, srv, nil)
	rowsA := fetchCandidates(t, srv, idA)

	// LRU: a second session under a cap of 1 evicts the first to disk. The
	// clock moves between creates so A is unambiguously the older entry
	// (eviction breaks lastUsed ties arbitrarily).
	advance(time.Second)
	preLRU := metricEvictionsLRU.Value()
	idB := createSession(t, srv, nil)
	if got := metricEvictionsLRU.Value() - preLRU; got != 1 {
		t.Fatalf("LRU evictions delta = %d, want 1", got)
	}
	if h.sessions.count() != 1 {
		t.Fatalf("resident sessions = %d, want 1", h.sessions.count())
	}
	// The evicted session rehydrates on demand (evicting B in turn — the
	// clock advances so B is strictly the LRU entry at that point).
	advance(time.Second)
	preRehydrate := metricRehydrations.Value()
	if got := fetchCandidates(t, srv, idA); !reflect.DeepEqual(rowsA, got) {
		t.Fatal("rehydrated session differs from original")
	}
	if got := metricRehydrations.Value() - preRehydrate; got != 1 {
		t.Fatalf("rehydrations delta = %d, want 1", got)
	}

	// TTL: idle past the TTL checkpoints to disk, then rehydrates on access.
	// The sweep is driven explicitly (in production the background eviction
	// loop or any shard access past the throttle does this).
	preTTL := metricEvictionsTTL.Value()
	advance(2 * time.Minute)
	h.sessions.sweepAll()
	if _, ok := h.sessions.get("s-00000000000000000000000000000000"); ok {
		t.Fatal("unknown id resolved")
	}
	if got := metricEvictionsTTL.Value() - preTTL; got != 1 {
		t.Fatalf("TTL evictions delta = %d, want 1 (only A was resident)", got)
	}
	if code, _ := askText(t, srv, idB, "no-modification"); code != http.StatusOK {
		t.Fatalf("TTL-evicted session should rehydrate, got %d", code)
	}
}

// TestDeleteRemovesOnDiskFiles covers the DELETE endpoint fix: deleting a
// session must remove its directory, whether it is memory-resident or only
// on disk, and the id must stop resolving afterwards.
func TestDeleteRemovesOnDiskFiles(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{DataDir: dataDir})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	sessionDir := func(id string) string { return filepath.Join(dataDir, "sessions", id) }

	// Resident session: files exist, DELETE removes them.
	id := createSession(t, srv, nil)
	if _, err := os.Stat(filepath.Join(sessionDir(id), persist.SnapshotFile)); err != nil {
		t.Fatalf("session has no on-disk snapshot: %v", err)
	}
	if code := del(id); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(sessionDir(id)); !os.IsNotExist(err) {
		t.Fatal("session directory survived DELETE")
	}
	if code, _ := askText(t, srv, id, "no-modification"); code != http.StatusNotFound {
		t.Fatalf("deleted session must not rehydrate, got %d", code)
	}
	if code := del(id); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}

	// Disk-only session (evicted from memory via shutdown): DELETE still
	// removes the files.
	id2 := createSession(t, srv, nil)
	h.Close()
	if h.sessions.count() != 0 {
		t.Fatal("shutdown left sessions resident")
	}
	if code := del(id2); code != http.StatusNoContent {
		t.Fatalf("delete of disk-only session: %d", code)
	}
	if _, err := os.Stat(sessionDir(id2)); !os.IsNotExist(err) {
		t.Fatal("disk-only session directory survived DELETE")
	}

	// A traversal-shaped id must not touch the filesystem.
	if code := del("..%2F..%2Fetc"); code != http.StatusNotFound {
		t.Fatalf("traversal id: %d, want 404", code)
	}
}

// TestMetaFileIsFixedWidth checks that meta.json's length does not depend
// on when a session was created: created_at is stored in whole seconds, so
// two creates of the same profile write files of equal length.
func TestMetaFileIsFixedWidth(t *testing.T) {
	dataDir := t.TempDir()
	h := NewWithConfig(demoSystem(t), Config{DataDir: dataDir})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	var sizes []int
	for i := 0; i < 2; i++ {
		id := createSession(t, srv, []string{"income <= old(income) * 1.5"})
		b, err := os.ReadFile(filepath.Join(dataDir, "sessions", id, metaFile))
		if err != nil {
			t.Fatal(err)
		}
		var meta sessionMeta
		if err := json.Unmarshal(b, &meta); err != nil {
			t.Fatal(err)
		}
		if meta.CreatedAt.Nanosecond() != 0 {
			t.Errorf("created_at %s has a fraction of a second", meta.CreatedAt.Format(time.RFC3339Nano))
		}
		sizes = append(sizes, len(b))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("meta.json sizes %v differ between two creates", sizes)
	}
}

// TestOrphanSweepOnStartup simulates create-then-crash debris: a session
// directory whose snapshot never committed (only meta + a temp file) must be
// cleaned up by the next server's startup sweep, while healthy directories
// survive.
func TestOrphanSweepOnStartup(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{DataDir: dataDir})
	srv := httptest.NewServer(h)
	id := createSession(t, srv, nil)
	h.Close()
	srv.Close()

	root := filepath.Join(dataDir, "sessions")
	// A crashed create: directory with metadata and a half-written snapshot
	// temp, but no committed snapshot.
	orphan := filepath.Join(root, "s-deadbeefdeadbeefdeadbeefdeadbeef")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta.json", persist.SnapshotFile + ".tmp"} {
		if err := os.WriteFile(filepath.Join(orphan, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file at the root.
	if err := os.WriteFile(filepath.Join(root, "junk.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := NewWithConfig(sys, Config{DataDir: dataDir})
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	defer h2.Close()

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned session directory survived the startup sweep")
	}
	if _, err := os.Stat(filepath.Join(root, "junk.tmp")); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived the startup sweep")
	}
	if code, _ := askText(t, srv2, id, "no-modification"); code != http.StatusOK {
		t.Fatalf("healthy session lost by the sweep: %d", code)
	}
}

// TestMetricsEndpoint asserts /debug/vars is mounted and carries the jitd
// counters, gauges and per-question latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Drive one question through so its latency histogram has a sample.
	id := createSession(t, srv, nil)
	if code, _ := askText(t, srv, id, "no-modification"); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}

	resp, out := getJSON(t, srv.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %d", resp.StatusCode)
	}
	for _, key := range []string{
		"jitd_sessions_live", "jitd_evictions_ttl", "jitd_evictions_lru",
		"jitd_rehydrations", "jitd_rehydrations_coalesced", "jitd_wal_bytes",
		"jitd_checkpoints", "jitd_creates_rejected",
		"jitd_question_latency_us", "jitd_shard_sessions",
	} {
		if _, ok := out[key]; !ok {
			t.Errorf("metric %s missing from /debug/vars", key)
		}
	}
	// The histogram is keyed by question kind and cumulative: the answered
	// question must have count >= 1 and a terminal le_inf equal to count.
	hists, _ := out["jitd_question_latency_us"].(map[string]interface{})
	h, _ := hists["no-modification"].(map[string]interface{})
	count, _ := h["count"].(float64)
	leInf, _ := h["le_inf"].(float64)
	if count < 1 || leInf != count {
		t.Errorf("no-modification histogram malformed: count=%v le_inf=%v (%v)", count, leInf, h)
	}
	// Per-shard gauge: an array whose sum covers the resident session.
	shards, _ := out["jitd_shard_sessions"].([]interface{})
	sum := 0.0
	for _, v := range shards {
		n, _ := v.(float64)
		sum += n
	}
	if sum < 1 {
		t.Errorf("jitd_shard_sessions sums to %v, want >= 1 resident", sum)
	}
}
