package server

import (
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"justintime/internal/sqldb/persist"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_families.golden")

// metricsShape reduces a /metrics page to its shape: the HELP and TYPE
// lines plus every series name with its labels, values stripped, sorted.
func metricsShape(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			out = append(out, line)
		default:
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				line = line[:i]
			}
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricsFamiliesGolden pins the families and series jitd's /metrics
// exposes, so a scraper (dashboards, perfbench's per-layer ledger) never
// silently loses one. The server runs the full set-up: a data dir, a buffer
// pool and a replication shipper feeding a live standby, after one create
// and one ask. Run with -update to accept an intended change.
func TestMetricsFamiliesGolden(t *testing.T) {
	standby, err := persist.NewReplica(filepath.Join(t.TempDir(), "sessions"), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go standby.Serve(ln)
	t.Cleanup(func() { standby.Close() })

	h := NewWithConfig(demoSystem(t), Config{
		DataDir: t.TempDir(), BufferPoolPages: 64, Shards: 4,
		ReplicateTo: ln.Addr().String(), Logger: quietLogger(),
	})
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
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := metricsShape(string(raw))

	path := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/server -run TestMetricsFamiliesGolden -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	have := make(map[string]bool, len(got))
	for _, l := range got {
		have[l] = true
	}
	wanted := make(map[string]bool, len(want))
	for _, l := range want {
		wanted[l] = true
		if !have[l] {
			t.Errorf("/metrics lost: %s", l)
		}
	}
	for _, l := range got {
		if !wanted[l] {
			t.Errorf("/metrics gained: %s", l)
		}
	}
}
