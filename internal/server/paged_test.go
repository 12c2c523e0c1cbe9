package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestPagedSessionRestartParity runs the PR 3 restart acceptance flow with
// paged candidate storage enabled: answers and the candidates database must
// be identical across a shutdown/relaunch, the session directory must carry
// an epoch-named page file, and the shared pool's /metrics families must reflect
// real traffic (faults happened, nothing stayed pinned).
func TestPagedSessionRestartParity(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	// A small pool (64 frames = 512 KiB) forces eviction pressure while
	// still fitting any single query's working set.
	cfg := Config{DataDir: dataDir, BufferPoolPages: 64, MaxSQLRows: 3}

	h1 := NewWithConfig(sys, cfg)
	srv1 := httptest.NewServer(h1)
	id := createSession(t, srv1, []string{"income <= old(income) * 1.5"})

	preRows := fetchCandidates(t, srv1, id)
	if len(preRows) == 0 {
		t.Fatal("no candidates generated on paged storage")
	}
	preAnswers := make(map[string]string, len(allKinds))
	for _, kind := range allKinds {
		code, text := askText(t, srv1, id, kind)
		if code != http.StatusOK {
			t.Fatalf("paged ask %s: %d", kind, code)
		}
		preAnswers[kind] = text
	}

	// The capped SQL endpoint streams from the paged store: the cap applies
	// and the truncation flag is set.
	resp, out := postJSON(t, srv1.URL+"/api/sessions/"+id+"/sql",
		map[string]string{"query": "SELECT * FROM candidates"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capped sql on paged store: %d %v", resp.StatusCode, out)
	}
	if rows, _ := out["rows"].([]interface{}); len(rows) != 3 {
		t.Fatalf("capped rows = %d, want 3", len(rows))
	}
	if out["truncated"] != true {
		t.Fatalf("truncated = %v", out["truncated"])
	}

	if n := h1.Close(); n != 1 {
		t.Fatalf("checkpointed %d sessions, want 1", n)
	}
	srv1.Close()

	// The checkpoint committed the rows into an epoch-named page file.
	pages, err := filepath.Glob(filepath.Join(dataDir, "sessions", id, "pages-candidates-*.db"))
	if err != nil || len(pages) == 0 {
		t.Fatalf("no committed page file in the session dir (err=%v)", err)
	}

	h2 := NewWithConfig(sys, cfg)
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	defer h2.Close()

	for _, kind := range allKinds {
		code, text := askText(t, srv2, id, kind)
		if code != http.StatusOK {
			t.Fatalf("post-restart paged ask %s: %d", kind, code)
		}
		if text != preAnswers[kind] {
			t.Errorf("paged restart drifted on %s:\n  pre:  %s\n  post: %s", kind, preAnswers[kind], text)
		}
	}
	if postRows := fetchCandidates(t, srv2, id); !reflect.DeepEqual(preRows, postRows) {
		t.Fatal("paged candidates database is not row-for-row identical after restart")
	}

	// The pool's families on /metrics moved: the rehydrated reads above
	// faulted pages in, and a quiescent server holds no pins.
	m := scrapeMetrics(t, srv2.URL)
	if misses := m["jitd_pool_misses_total"]; misses < 1 {
		t.Errorf("jitd_pool_misses_total = %v, want >= 1 after cold reads", misses)
	}
	if pinned, ok := m["jitd_pool_pinned"]; !ok || pinned != 0 {
		t.Errorf("jitd_pool_pinned = %v (present %v), want 0 at rest", pinned, ok)
	}
	for _, key := range []string{
		"jitd_pool_hits_total", "jitd_pool_evictions_total", "jitd_pool_dirty_writebacks_total",
		"jitd_pool_resident_pages",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("pool family %s missing from /metrics", key)
		}
	}
}

// TestPagedEvictionRehydrate drives the LRU eviction path with paged storage:
// an evicted paged session checkpoints (pages + snapshot), releases its
// frames, and rehydrates from disk with identical contents.
func TestPagedEvictionRehydrate(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	h := NewWithConfig(sys, Config{
		DataDir: dataDir, BufferPoolPages: 64,
		MaxSessions: 1, SessionTTL: time.Minute,
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })
	h.sessions.stopBackgroundSweeps()
	advance := installFakeClock(h.sessions, time.Unix(1000, 0))

	idA := createSession(t, srv, nil)
	rowsA := fetchCandidates(t, srv, idA)

	advance(time.Second)
	idB := createSession(t, srv, nil) // evicts A under the cap of 1
	if h.sessions.count() != 1 {
		t.Fatalf("resident sessions = %d, want 1", h.sessions.count())
	}

	advance(time.Second)
	preRehydrate := metricRehydrations.Value()
	if got := fetchCandidates(t, srv, idA); !reflect.DeepEqual(rowsA, got) {
		t.Fatal("rehydrated paged session differs from original")
	}
	if got := metricRehydrations.Value() - preRehydrate; got != 1 {
		t.Fatalf("rehydrations delta = %d, want 1", got)
	}
	if code, _ := askText(t, srv, idB, "no-modification"); code != http.StatusOK {
		t.Fatalf("evicted paged session B should rehydrate, got %d", code)
	}
	if pinned := h.pool.Stats().Pinned; pinned != 0 {
		t.Fatalf("pool pins leaked across evict/rehydrate: %d", pinned)
	}
}
