package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"justintime/internal/candgen"
	"justintime/internal/core"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/mlmodel"
	"justintime/internal/server"
)

var (
	sysOnce sync.Once
	sysVal  *core.System
	sysErr  error
)

// demoSystem trains one small system shared by all cluster tests — the same
// shape the server tests use, so shard behaviour matches.
func demoSystem(t testing.TB) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		d := dataset.MustGenerate(dataset.Config{Seed: 3, Eras: 4, RowsPerEra: 400, LabelNoise: 0.03, DriftScale: 1})
		hist := make([]drift.Era, d.Eras())
		for e := 0; e < d.Eras(); e++ {
			for _, ex := range d.Era(e) {
				hist[e].X = append(hist[e].X, ex.X)
				hist[e].Y = append(hist[e].Y, ex.Label)
			}
		}
		sysVal, sysErr = core.NewSystem(core.Config{
			Schema:     dataset.LoanSchema(),
			T:          2,
			DeltaYears: 1,
			Generator:  drift.Last{Trainer: drift.ForestTrainer(mlmodel.ForestConfig{Trees: 12, MaxDepth: 6, MinLeaf: 3, Seed: 7})},
			CandGen:    candgen.Config{K: 5, BeamWidth: 10, MaxIters: 12, Patience: 3, DiversityPenalty: 0.5},
			BaseYear:   2010,
		}, hist)
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

// testCluster is an in-process 3-shard cluster: three real Servers, each
// minting only session IDs it owns, behind one Router.
type testCluster struct {
	names  []string
	shards map[string]*httptest.Server // name -> shard API server
	router *httptest.Server
	rt     *Router
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	names := []string{"s0", "s1", "s2"}
	tc := &testCluster{names: names, shards: make(map[string]*httptest.Server)}
	m := &Map{}
	for _, name := range names {
		name := name
		h := server.NewWithConfig(demoSystem(t), server.Config{
			KeepSessionID: func(id string) bool { return OwnedBy(id, name, names) },
		})
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		t.Cleanup(func() { h.Close() })
		tc.shards[name] = srv
		m.Shards = append(m.Shards, Shard{Name: name, Addr: strings.TrimPrefix(srv.URL, "http://")})
	}
	rt, err := NewRouter(RouterConfig{Map: m, ProbeInterval: 50 * time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.rt = rt
	tc.router = httptest.NewServer(rt)
	t.Cleanup(tc.router.Close)
	return tc
}

func (tc *testCluster) shardURLFor(t *testing.T, id string) string {
	t.Helper()
	owner := Owner(id, tc.names)
	srv := tc.shards[owner]
	if srv == nil {
		t.Fatalf("no shard owns %q", id)
	}
	return srv.URL
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouterDifferential is the differential harness: the same request sent
// directly to the owning shard and through the router must come back with the
// same status and byte-identical body, for create, ask, expert SQL, and
// delete, for sessions living on every shard.
func TestRouterDifferential(t *testing.T) {
	tc := newTestCluster(t)

	// Create sessions through the router until every shard holds at least
	// one. Each shard mints only IDs it owns, so the ID in the response is
	// proof of where the session landed.
	createBody, _ := json.Marshal(map[string]interface{}{
		"profile": map[string]float64{
			"age": 29, "household": 1, "income": 48000,
			"debt": 1900, "seniority": 4, "amount": 30000,
		},
		"constraints": []string{},
	})
	sessions := map[string]string{} // shard name -> session id
	for i := 0; i < 30 && len(sessions) < len(tc.names); i++ {
		resp, body := doReq(t, "POST", tc.router.URL+"/api/sessions", createBody)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create via router: %d %s", resp.StatusCode, body)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
			t.Fatalf("create response %s: %v", body, err)
		}
		owner := Owner(out.ID, tc.names)
		if _, dup := sessions[owner]; !dup {
			sessions[owner] = out.ID
		}
	}
	if len(sessions) != len(tc.names) {
		t.Fatalf("could not land a session on every shard: %v", sessions)
	}

	askBody, _ := json.Marshal(map[string]interface{}{"kind": "no-modification"})
	askFeat, _ := json.Marshal(map[string]interface{}{"kind": "dominant-feature", "feature": "income", "alpha": 0.7})
	sqlBody, _ := json.Marshal(map[string]string{"query": "SELECT * FROM candidates ORDER BY time, diff, gap, p"})

	compare := func(method, path string, body []byte, id string, want int) {
		t.Helper()
		direct, directBody := doReq(t, method, tc.shardURLFor(t, id)+path, body)
		routed, routedBody := doReq(t, method, tc.router.URL+path, body)
		if direct.StatusCode != want || routed.StatusCode != want {
			t.Fatalf("%s %s: direct %d, routed %d, want %d (%s vs %s)",
				method, path, direct.StatusCode, routed.StatusCode, want, directBody, routedBody)
		}
		if !bytes.Equal(directBody, routedBody) {
			t.Fatalf("%s %s: bodies differ\ndirect: %s\nrouted: %s", method, path, directBody, routedBody)
		}
	}

	exercise := func() {
		for _, name := range tc.names {
			id := sessions[name]
			compare("GET", "/api/sessions/"+id+"/inputs", nil, id, 200)
			compare("POST", "/api/sessions/"+id+"/ask", askBody, id, 200)
			compare("POST", "/api/sessions/"+id+"/ask", askFeat, id, 200)
			compare("POST", "/api/sessions/"+id+"/sql", sqlBody, id, 200)
		}
	}
	exercise()

	// A reload with identical names (addresses re-stated) must not move any
	// session: the same differential pass still holds, byte for byte.
	m := &Map{}
	for _, name := range tc.names {
		m.Shards = append(m.Shards, Shard{Name: name, Addr: strings.TrimPrefix(tc.shards[name].URL, "http://")})
	}
	tc.rt.Reload(m)
	exercise()

	// Deletes route to the owner too: after a routed DELETE the session is
	// gone on the owning shard, and both paths agree it is gone.
	victim := sessions[tc.names[0]]
	resp, body := doReq(t, "DELETE", tc.router.URL+"/api/sessions/"+victim, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("routed delete: %d %s", resp.StatusCode, body)
	}
	compare("GET", "/api/sessions/"+victim+"/inputs", nil, victim, http.StatusNotFound)
}

// TestRouterOwnerEndpointAgreesWithShards checks /admin/owner against the
// shard-side predicate for a spread of IDs.
func TestRouterOwnerEndpointAgreesWithShards(t *testing.T) {
	tc := newTestCluster(t)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("session-%04d", i)
		resp, body := doReq(t, "GET", tc.router.URL+"/admin/owner?id="+id, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("owner query: %d %s", resp.StatusCode, body)
		}
		var out struct {
			Shard string `json:"shard"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Shard != Owner(id, tc.names) {
			t.Fatalf("router says %s owns %q, Owner says %s", out.Shard, id, Owner(id, tc.names))
		}
	}
}

// hungListener accepts connections and never answers — the pathological
// failure shape (kill -STOP, network black hole) that must NOT stall the
// router or other shards.
func hungListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					if _, err := c.Read(buf); err != nil {
						if ne, ok := err.(net.Error); ok && ne.Timeout() {
							select {
							case <-done:
								return
							default:
								continue
							}
						}
						return
					}
				}
			}(c)
		}
	}()
	return ln
}

// idOwnedBy finds a session ID the given shard owns under names.
func idOwnedBy(t *testing.T, shard string, names []string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("probe-%d", i)
		if OwnedBy(id, shard, names) {
			return id
		}
	}
	t.Fatalf("no id owned by %s", shard)
	return ""
}

// TestRouterDeadShardFailsFastAndIsolated is the regression test for the
// hung-connection bug: a shard that accepts TCP but never answers must turn
// into a 503 with Retry-After within the forward timeout, and while its
// requests are stalling, requests to a healthy shard must keep completing —
// the per-shard connection pools isolate the damage.
func TestRouterDeadShardFailsFastAndIsolated(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		_, _ = io.WriteString(w, `{"questions":[]}`)
	}))
	defer live.Close()
	hung := hungListener(t)

	names := []string{"alive", "dead"}
	m := &Map{Shards: []Shard{
		{Name: "alive", Addr: strings.TrimPrefix(live.URL, "http://")},
		{Name: "dead", Addr: hung.Addr().String()},
	}}
	rt, err := NewRouter(RouterConfig{
		Map:            m,
		ForwardTimeout: 400 * time.Millisecond,
		ProbeInterval:  100 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		DownAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	deadID := idOwnedBy(t, "dead", names)
	liveID := idOwnedBy(t, "alive", names)

	// Phase 1: the prober has not condemned the shard yet, so requests go
	// out and must be cut off by the forward timeout — a 503, not a hang.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := doReq(t, "GET", front.URL+"/api/sessions/"+deadID+"/inputs", nil)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("dead shard: status %d, want 503", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("dead shard: no Retry-After header")
			}
		}()
	}

	// While those eight requests are parked on the dead shard, the live
	// shard must answer immediately through its own pool.
	for i := 0; i < 20; i++ {
		start := time.Now()
		resp, _ := doReq(t, "GET", front.URL+"/api/sessions/"+liveID+"/inputs", nil)
		if d := time.Since(start); d > 300*time.Millisecond {
			t.Fatalf("live shard took %v with dead shard in flight (pool not isolated?)", d)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("live shard: status %d", resp.StatusCode)
		}
	}
	wg.Wait()

	// Phase 2: once the prober marks the shard down, the 503 is immediate —
	// no dial, no timeout wait.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := rt.health(); !h["dead"] && h["alive"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked shard down: %v", rt.health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	start := time.Now()
	resp, body := doReq(t, "GET", front.URL+"/api/sessions/"+deadID+"/inputs", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("down shard: %d %q %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("down-shard 503 took %v, want immediate", d)
	}
	var out struct {
		Shard string `json:"shard"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Shard != "dead" {
		t.Fatalf("503 body %s (err %v)", body, err)
	}

	// Session creation keeps working with one shard down: round-robin skips
	// unhealthy shards.
	resp, _ = doReq(t, "GET", front.URL+"/api/questions", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("catalog with one shard down: %d", resp.StatusCode)
	}
}

// TestRouterMetrics scrapes the router's /metrics after forwards to two live
// shards and one to a shard the prober has marked down: the per-shard
// families carry those requests, each latency series closes with a +Inf
// bucket equal to its _count, and the retired /debug/vars page is gone.
// The bucket layout itself is the obs writer's and is checked in its tests.
func TestRouterMetrics(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{}`)
	}))
	defer live.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here: every dial is refused

	names := []string{"a", "b", "dead"}
	liveAddr := strings.TrimPrefix(live.URL, "http://")
	rt, err := NewRouter(RouterConfig{
		Map: &Map{Shards: []Shard{
			{Name: "a", Addr: liveAddr},
			{Name: "b", Addr: liveAddr},
			{Name: "dead", Addr: deadAddr},
		}},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		DownAfter:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	deadline := time.Now().Add(5 * time.Second)
	for rt.health()["dead"] {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the dead shard down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, shard := range []string{"a", "b"} {
		resp, _ := doReq(t, "GET", front.URL+"/api/sessions/"+idOwnedBy(t, shard, names)+"/inputs", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forward to %s: %d", shard, resp.StatusCode)
		}
	}
	resp, _ := doReq(t, "GET", front.URL+"/api/sessions/"+idOwnedBy(t, "dead", names)+"/inputs", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forward to the dead shard: %d, want 503", resp.StatusCode)
	}

	resp, body := doReq(t, "GET", front.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	page := string(body)
	for _, family := range []string{
		"jitrouter_forwarded_total counter", "jitrouter_unavailable_total counter",
		"jitrouter_shard_healthy gauge", "jitrouter_forward_duration_seconds histogram",
	} {
		if !strings.Contains(page, "# TYPE "+family+"\n") {
			t.Errorf("/metrics lacks family %q", family)
		}
	}
	m := map[string]string{}
	for _, line := range strings.Split(page, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			m[name] = val
		}
	}
	for series, want := range map[string]string{
		`jitrouter_forwarded_total{shard="a"}`:                             "1",
		`jitrouter_forwarded_total{shard="b"}`:                             "1",
		`jitrouter_forwarded_total{shard="dead"}`:                          "0",
		`jitrouter_unavailable_total{shard="dead"}`:                        "1",
		`jitrouter_shard_healthy{shard="a"}`:                               "1",
		`jitrouter_shard_healthy{shard="dead"}`:                            "0",
		`jitrouter_forward_duration_seconds_count{shard="a"}`:              "1",
		`jitrouter_forward_duration_seconds_bucket{shard="a",le="+Inf"}`:   "1",
		`jitrouter_forward_duration_seconds_count{shard="b"}`:              "1",
		`jitrouter_forward_duration_seconds_bucket{shard="b",le="+Inf"}`:   "1",
		`jitrouter_forward_duration_seconds_count{shard="dead"}`:           "0",
		`jitrouter_forward_duration_seconds_bucket{shard="dead",le="5"}`:   "0",
		`jitrouter_forward_duration_seconds_bucket{shard="dead",le="0.1"}`: "0",
	} {
		if got, ok := m[series]; got != want {
			t.Errorf("%s = %q (present %v), want %s", series, got, ok, want)
		}
	}

	resp, _ = doReq(t, "GET", front.URL+"/debug/vars", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: %d, want 404", resp.StatusCode)
	}
}
