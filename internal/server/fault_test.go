package server

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"justintime/internal/fault"
	"justintime/internal/sqldb/persist"
)

// TestDegradedModeOnENOSPCAndRecovery: a full disk during session creation
// must flip the server into read-only degraded mode — 503 + Retry-After,
// gauge up — and the background probe must clear the mode automatically
// once the disk accepts writes again, with no restart.
func TestDegradedModeOnENOSPCAndRecovery(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	inj := fault.NewInjector(nil)
	h := NewWithConfig(sys, Config{
		DataDir:               dataDir,
		FS:                    inj,
		DegradedProbeInterval: 25 * time.Millisecond,
		Logger:                quietLogger(),
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	// A healthy create first: the fault plane at rest is invisible.
	idOK := createSession(t, srv, nil)

	// The disk fills: the next handful of mutating ops under the sessions
	// tree fail ENOSPC. The budget is finite — recovery probes burn it down,
	// which is exactly how a chaos run's disk "recovers".
	inj.AddRule(fault.Rule{Op: fault.OpMutate, Path: "sessions", Err: fault.ErrNoSpace, Times: 6})

	resp, out := postJSON(t, srv.URL+"/api/sessions", map[string]interface{}{
		"profile": johnProfile(),
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on a full disk: %d %v, want 503", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 on a full disk carries no Retry-After")
	}
	if metricDegradedMode.Value() != 1 {
		t.Fatalf("jitd_degraded_mode = %d after ENOSPC, want 1", metricDegradedMode.Value())
	}

	// Reads keep working while degraded: the healthy session still answers.
	if code, _ := askText(t, srv, idOK, "no-modification"); code != http.StatusOK {
		t.Fatalf("read while degraded: %d, want 200", code)
	}

	// The probe clears the mode by itself once the writes go through.
	deadline := time.Now().Add(10 * time.Second)
	for metricDegradedMode.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("degraded mode never cleared after the disk recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And creates flow again, no restart needed.
	id2 := createSession(t, srv, nil)
	if code, _ := askText(t, srv, id2, "no-modification"); code != http.StatusOK {
		t.Fatalf("create after recovery answered %d", code)
	}
}

// TestCorruptSessionQuarantinedInIsolation: checksum-invalid bytes in one
// session's snapshot must quarantine exactly that session — directory moved
// aside, 404 for its id, counter bumped — while the process keeps serving
// every other session untouched.
func TestCorruptSessionQuarantinedInIsolation(t *testing.T) {
	dataDir := t.TempDir()
	sys := demoSystem(t)
	cfg := Config{DataDir: dataDir, Logger: quietLogger()}

	h1 := NewWithConfig(sys, cfg)
	srv1 := httptest.NewServer(h1)
	idBad := createSession(t, srv1, nil)
	idGood := createSession(t, srv1, nil)
	goodRows := fetchCandidates(t, srv1, idGood)
	h1.Close()
	srv1.Close()

	// Flip bytes mid-snapshot: a checksum failure on the next read, not a
	// torn tail replay can shrug off.
	snap := filepath.Join(dataDir, "sessions", idBad, persist.SnapshotFile)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(b) / 2; i < len(b)/2+8 && i < len(b); i++ {
		b[i] ^= 0xFF
	}
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	pre := metricSessionsQuarantined.Value()
	h2 := NewWithConfig(sys, cfg)
	srv2 := httptest.NewServer(h2)
	t.Cleanup(srv2.Close)
	t.Cleanup(func() { h2.Close() })

	// The poisoned session reports plain 404 — not a 500, not a crash.
	if code, _ := askText(t, srv2, idBad, "no-modification"); code != http.StatusNotFound {
		t.Fatalf("corrupt session answered %d, want 404", code)
	}
	if got := metricSessionsQuarantined.Value() - pre; got != 1 {
		t.Fatalf("jitd_sessions_quarantined delta = %d, want 1", got)
	}
	// The directory moved to the quarantine area (evidence preserved for a
	// post-mortem), and out of the live sessions tree.
	if _, err := os.Stat(filepath.Join(dataDir, "quarantine", idBad, persist.SnapshotFile)); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "sessions", idBad)); !os.IsNotExist(err) {
		t.Fatal("corrupt session still in the live tree")
	}
	// Repeat access stays a stable 404 (no re-quarantine loop).
	if code, _ := askText(t, srv2, idBad, "no-modification"); code != http.StatusNotFound {
		t.Fatal("second access to quarantined session not 404")
	}
	if got := metricSessionsQuarantined.Value() - pre; got != 1 {
		t.Fatalf("quarantine counter moved on repeat access: delta %d", got)
	}

	// The healthy session is untouched: same rows, straight from disk.
	if got := fetchCandidates(t, srv2, idGood); !reflect.DeepEqual(goodRows, got) {
		t.Fatal("healthy session's data drifted across the quarantine event")
	}
}

// TestQuarantineRetiresStandbyCopy: with replication on, quarantining a
// corrupt session also deletes the standby's copy, and replication lag
// reads 0 only once the standby no longer holds it.
func TestQuarantineRetiresStandbyCopy(t *testing.T) {
	dataDir := t.TempDir()
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
	sys := demoSystem(t)
	cfg := Config{DataDir: dataDir, Logger: quietLogger(), ReplicateTo: ln.Addr().String()}
	waitCurrent := func(h *Server) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for st := h.shipper.Stats(); !st.Connected || st.LagSessions != 0; st = h.shipper.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("standby never caught up: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	h1 := NewWithConfig(sys, cfg)
	srv1 := httptest.NewServer(h1)
	idBad := createSession(t, srv1, nil)
	waitCurrent(h1)
	h1.Close()
	srv1.Close()

	snap := filepath.Join(dataDir, "sessions", idBad, persist.SnapshotFile)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(b) / 2; i < len(b)/2+8 && i < len(b); i++ {
		b[i] ^= 0xFF
	}
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := NewWithConfig(sys, cfg)
	srv2 := httptest.NewServer(h2)
	t.Cleanup(srv2.Close)
	t.Cleanup(func() { h2.Close() })
	waitCurrent(h2)
	if code, _ := askText(t, srv2, idBad, "no-modification"); code != http.StatusNotFound {
		t.Fatalf("corrupt session answered %d, want 404", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := os.Stat(filepath.Join(standby.Root(), idBad))
		gone := os.IsNotExist(err)
		if st := h2.shipper.Stats(); st.Connected && st.LagSessions == 0 && gone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby kept the quarantined session (gone=%v): %+v", gone, h2.shipper.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
