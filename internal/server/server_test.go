package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"justintime/internal/candgen"
	"justintime/internal/core"
	"justintime/internal/dataset"
	"justintime/internal/drift"
	"justintime/internal/mlmodel"
)

var (
	sysOnce sync.Once
	sysVal  *core.System
	sysErr  error
)

// demoSystem trains one small system shared by all server tests and benches.
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
			CandGen:    candgen.Config{K: 5, BeamWidth: 10, MaxIters: 12, Patience: 3, DiversityPenalty: 0.5, ShrinkRounds: 12},
			BaseYear:   2010,
		}, hist)
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	h := New(demoSystem(t))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	// Release the manager too: its background eviction loop and registry
	// entry outlive the test otherwise.
	t.Cleanup(func() { h.Close() })
	return srv
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, map[string]interface{}) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

// scrapeMetrics reads a /metrics page into series (name plus labels) ->
// value.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("malformed /metrics line %q", line)
		}
		out[name] = v
	}
	return out
}

func johnProfile() map[string]float64 {
	return map[string]float64{
		"age": 29, "household": 1, "income": 48000,
		"debt": 1900, "seniority": 4, "amount": 30000,
	}
}

func createSession(t *testing.T, srv *httptest.Server, constraints []string) string {
	t.Helper()
	resp, out := postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{
		"profile":     johnProfile(),
		"constraints": constraints,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %v", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no session id in %v", out)
	}
	return id
}

func TestSchemaEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := getJSON(t, srv.URL+"/api/schema")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	fields, _ := out["fields"].([]interface{})
	if len(fields) != 6 {
		t.Fatalf("fields = %v", out)
	}
	first := fields[0].(map[string]interface{})
	if first["name"] != "age" || first["immutable"] != true {
		t.Errorf("age field = %v", first)
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := getJSON(t, srv.URL+"/api/models")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	models, _ := out["models"].([]interface{})
	if len(models) != 3 {
		t.Fatalf("models = %v", out)
	}
}

func TestProfilesEndpoint(t *testing.T) {
	srv := testServer(t)
	_, out := getJSON(t, srv.URL+"/api/profiles")
	profiles, _ := out["profiles"].([]interface{})
	if len(profiles) != 5 {
		t.Fatalf("profiles = %v", out)
	}
}

func TestQuestionsEndpoint(t *testing.T) {
	srv := testServer(t)
	_, out := getJSON(t, srv.URL+"/api/questions")
	qs, _ := out["questions"].([]interface{})
	if len(qs) != 6 {
		t.Fatalf("questions = %v", out)
	}
}

func TestSessionLifecycle(t *testing.T) {
	srv := testServer(t)
	id := createSession(t, srv, []string{"income <= old(income) * 1.5"})

	// Inputs inspection endpoint.
	resp, out := getJSON(t, srv.URL+"/api/sessions/"+id+"/inputs")
	if resp.StatusCode != 200 {
		t.Fatalf("inputs: %d %v", resp.StatusCode, out)
	}
	rows, _ := out["rows"].([]interface{})
	if len(rows) != 3 { // T=2 => 3 temporal inputs
		t.Fatalf("inputs rows = %v", out)
	}

	// Ask every canned question.
	for _, kind := range []string{
		"no-modification", "minimal-features-set", "dominant-feature",
		"minimal-overall-modification", "maximal-confidence", "turning-point",
	} {
		body := map[string]interface{}{"kind": kind, "feature": "income", "alpha": 0.7}
		resp, out := postJSON(t, srv.URL+"/api/sessions/"+id+"/ask", body)
		if resp.StatusCode != 200 {
			t.Fatalf("ask %s: %d %v", kind, resp.StatusCode, out)
		}
		if out["text"] == "" || out["sql"] == "" {
			t.Errorf("ask %s: missing text/sql: %v", kind, out)
		}
	}

	// Expert SQL.
	resp, out = postJSON(t, srv.URL+"/api/sessions/"+id+"/sql",
		map[string]string{"query": "SELECT COUNT(*) FROM candidates"})
	if resp.StatusCode != 200 {
		t.Fatalf("sql: %d %v", resp.StatusCode, out)
	}
}

func TestSessionErrors(t *testing.T) {
	srv := testServer(t)

	// Missing attribute.
	resp, _ := postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{
		"profile": map[string]float64{"age": 29},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing attribute: %d", resp.StatusCode)
	}
	// Unknown attribute.
	p := johnProfile()
	p["nosuch"] = 1
	resp, _ = postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{"profile": p})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown attribute: %d", resp.StatusCode)
	}
	// Bad constraint.
	resp, _ = postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{
		"profile": johnProfile(), "constraints": []string{"income >"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad constraint: %d", resp.StatusCode)
	}
	// Out-of-bounds profile.
	p = johnProfile()
	p["age"] = 5
	resp, _ = postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{"profile": p})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad profile: %d", resp.StatusCode)
	}

	// Unknown session.
	resp, _ = postJSON(t, srv.URL+"/api/sessions/nope/ask", map[string]string{"kind": "no-modification"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %d", resp.StatusCode)
	}

	id := createSession(t, srv, nil)
	// Unknown question kind.
	resp, _ = postJSON(t, srv.URL+"/api/sessions/"+id+"/ask", map[string]string{"kind": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: %d", resp.StatusCode)
	}
	// Bad SQL.
	resp, _ = postJSON(t, srv.URL+"/api/sessions/"+id+"/sql", map[string]string{"query": "SELEC"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad sql: %d", resp.StatusCode)
	}
	// Empty SQL.
	resp, _ = postJSON(t, srv.URL+"/api/sessions/"+id+"/sql", map[string]string{"query": " "})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sql: %d", resp.StatusCode)
	}
	// Writes rejected up front through the expert endpoint.
	for _, q := range []string{"DELETE FROM candidates", "DROP TABLE candidates", "UPDATE candidates SET p = 1", "INSERT INTO candidates VALUES (1)"} {
		resp, _ = postJSON(t, srv.URL+"/api/sessions/"+id+"/sql", map[string]string{"query": q})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("non-SELECT %q through sql endpoint: %d", q, resp.StatusCode)
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]interface{}{"profile": johnProfile()})
			resp, err := http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("worker %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv := testServer(t)
	id := createSession(t, srv, nil)
	resp, out := getJSON(t, srv.URL+"/api/sessions/"+id+"/plan")
	if resp.StatusCode != 200 {
		t.Fatalf("plan: %d %v", resp.StatusCode, out)
	}
	plan, _ := out["plan"].([]interface{})
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	step := plan[0].(map[string]interface{})
	if step["when"] == "" || step["confidence"] == nil {
		t.Errorf("step = %v", step)
	}
	resp, _ = getJSON(t, srv.URL+"/api/sessions/nope/plan")
	if resp.StatusCode != 404 {
		t.Errorf("unknown session plan: %d", resp.StatusCode)
	}
}
