package core

import (
	"runtime"
	"testing"

	"justintime/internal/candgen"
	"justintime/internal/dataset"
	"justintime/internal/drift"
)

// TestSessionMemoryBudget bounds what a served session keeps resident: 20
// sessions at jitd's defaults (KI models, T = 3, top-8, so 32 candidate
// rows each) answer their six questions and their plan, which builds the
// six lazy indexes, and then each may retain at most 45 KiB of live heap.
func TestSessionMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const sessions, budget = 20, 45 << 10
	cfg := testConfig()
	cfg.Generator = drift.KI{Degree: 1}
	cfg.CandGen = candgen.DefaultConfig()
	cfg.CandGen.Seed = 1
	sys, err := NewSystem(cfg, testHistory(t, 4, 500))
	if err != nil {
		t.Fatal(err)
	}
	profiles := dataset.RejectedProfiles()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	held := make([]*Session, sessions)
	for i := range held {
		p := append([]float64(nil), profiles[i%len(profiles)]...)
		p[2] += float64(1000 * (i / len(profiles))) // income: distinct applicants
		sess, err := sys.NewSession(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.AskAll("income", 0.7); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Plan(); err != nil {
			t.Fatal(err)
		}
		held[i] = sess
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := (int64(ms.HeapAlloc) - int64(before)) / sessions
	rows := 0
	for _, s := range held {
		n, err := s.CandidateCount()
		if err != nil {
			t.Fatal(err)
		}
		rows += n
	}
	t.Logf("%d sessions, %d candidate rows: %.1f KiB retained per session", sessions, rows, float64(per)/1024)
	runtime.KeepAlive(held)
	if per > budget {
		t.Fatalf("each session retains %.1f KiB, budget %d KiB", float64(per)/1024, budget>>10)
	}
}
