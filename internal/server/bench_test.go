package server

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"justintime/internal/constraints"
	"justintime/internal/dataset"
	"justintime/internal/obs"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/persist"
)

// benchSessions builds a persisting manager holding `hot` resident sessions
// plus two more that the LRU cap has already checkpointed to disk. The
// returned slices are (resident ids, evicted-to-disk ids).
func benchSessions(b *testing.B, m *sessionManager, hot int) (hotIDs, cold []string) {
	b.Helper()
	sys := demoSystem(b)
	profiles := dataset.RejectedProfiles()
	ids := make([]string, 0, hot+2)
	for i := 0; i < hot+2; i++ {
		sess, err := sys.NewSession(profiles[i%len(profiles)], constraints.NewSet())
		if err != nil {
			b.Fatal(err)
		}
		id, err := m.add(sess, nil)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The first two adds are the least recently used, so the cap pushed
	// exactly them out to disk.
	return ids[2:], ids[:2]
}

// BenchmarkConcurrentServe is the sharding PR's acceptance benchmark:
// aggregate request throughput (and p50/p99 latency) for lookups+queries
// against hot sessions while a background goroutine continuously forces cold
// sessions through the rehydrate→dirty→evict→checkpoint cycle. Under a
// global session-manager mutex every background snapshot+fsync and WAL
// replay stalls the hot path; with sharded, off-mutex persistence I/O it
// must not.
//
// The tracing=on variant threads a collector-backed span context through
// every request at production sampling defaults; the observability PR's
// acceptance bound is a geomean throughput regression of at most 5% over
// tracing=off.
func BenchmarkConcurrentServe(b *testing.B) {
	b.Run("tracing=off", func(b *testing.B) { benchConcurrentServe(b, nil) })
	b.Run("tracing=on", func(b *testing.B) {
		benchConcurrentServe(b, obs.NewCollector(25*time.Millisecond, 16, 256))
	})
}

func benchConcurrentServe(b *testing.B, collector *obs.Collector) {
	const hot = 8
	sys := demoSystem(b)
	p := newPersister(b.TempDir(), sys, persist.SyncBatched, nil, nil)
	m := newSessionManager(hot, time.Hour, 4, p)
	m.traces = collector
	b.Cleanup(func() { m.shutdown() })
	hotIDs, cold := benchSessions(b, m, hot)

	stop := make(chan struct{})
	done := make(chan struct{})
	// Couple the churn rate to benchmark progress instead of free-running it:
	// the serve goroutines nudge churnReq once per churnEvery requests, and
	// the churn goroutine does one rehydrate→dirty→evict→checkpoint cycle per
	// nudge. A free-running churn loop races the serve goroutines for
	// leftover CPU, so the scheduler's mood (21k vs 413k churns per run
	// observed) — not the code under test — decides the run's ns/op;
	// progress-coupled churn gives every run and both tracing variants the
	// same background work mix per request.
	const churnEvery = 64
	churnReq := make(chan struct{}, 1)
	var churns int64
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-churnReq:
			}
			// Rehydrate one cold session (disk load). At the cap, this
			// evicts the current LRU entry, checkpointing it to disk —
			// snapshot write + fsync. The no-op UPDATE dirties the WAL so
			// the next checkpoint of this session has something to fold.
			sess, ok := m.get(cold[i%len(cold)])
			if !ok {
				b.Errorf("cold session %s lost", cold[i%len(cold)])
				return
			}
			if _, err := sess.DB().Exec("UPDATE candidates SET p = p WHERE time < 0"); err != nil {
				b.Error(err)
				return
			}
			atomic.AddInt64(&churns, 1)
		}
	}()

	stmt := sqldb.MustPrepare("SELECT COUNT(*) FROM candidates WHERE time = 0")
	var latMu sync.Mutex
	var lat []time.Duration
	b.ResetTimer()
	b.SetParallelism(8) // lock-wait, not CPU, is under test: queue 8 requesters even on 1 core
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 4096)
		i := 0
		for pb.Next() {
			start := time.Now()
			id := hotIDs[i%len(hotIDs)]
			i++
			if i%churnEvery == 0 {
				select {
				case churnReq <- struct{}{}: // nudge; dropped if churn is mid-cycle
				default:
				}
			}
			if collector == nil {
				// The untraced baseline uses the plain entry points — the
				// exact pre-observability hot path.
				sess, ok := m.get(id)
				if !ok {
					b.Errorf("hot session %s lost", id)
					continue
				}
				if _, err := stmt.Query(sess.DB()); err != nil {
					b.Error(err)
				}
			} else {
				// The traced variant mirrors the HTTP middleware: a trace
				// per request, span context threaded through lookup + query,
				// tail-sampled at Finish.
				tr := collector.StartRequest("POST", "/bench/ask")
				ctx := obs.With(context.Background(), tr.Root)
				sess, ok := m.getCtx(ctx, id)
				if !ok {
					b.Errorf("hot session %s lost", id)
					collector.Finish(tr, 404)
					continue
				}
				if _, err := stmt.QueryCtx(ctx, sess.DB()); err != nil {
					b.Error(err)
				}
				collector.Finish(tr, 200)
			}
			local = append(local, time.Since(start))
		}
		latMu.Lock()
		lat = append(lat, local...)
		latMu.Unlock()
	})
	b.StopTimer()
	close(stop)
	<-done

	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds())/1e3, "p99-us")
	}
	b.ReportMetric(float64(atomic.LoadInt64(&churns)), "bg-churns")
}

// BenchmarkRequestOverhead isolates the per-request cost of tracing with no
// background churn and no parallelism: one goroutine doing the hot
// lookup+query path untraced, then traced at production sampling. The
// ns/op difference between the two sub-benchmarks is the tracer's true
// per-request overhead (BenchmarkConcurrentServe measures the same thing
// under contention, where scheduler noise dominates).
func BenchmarkRequestOverhead(b *testing.B) {
	const hot = 4
	sys := demoSystem(b)
	p := newPersister(b.TempDir(), sys, persist.SyncBatched, nil, nil)
	m := newSessionManager(hot, time.Hour, 4, p)
	b.Cleanup(func() { m.shutdown() })
	hotIDs, _ := benchSessions(b, m, hot)
	stmt := sqldb.MustPrepare("SELECT COUNT(*) FROM candidates WHERE time = 0")
	id := hotIDs[0]

	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess, ok := m.get(id)
			if !ok {
				b.Fatal("session lost")
			}
			if _, err := stmt.Query(sess.DB()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		collector := obs.NewCollector(25*time.Millisecond, 16, 256)
		m.traces = collector
		b.Cleanup(func() { m.traces = nil })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := collector.StartRequest("POST", "/bench/ask")
			ctx := obs.With(context.Background(), tr.Root)
			sess, ok := m.getCtx(ctx, id)
			if !ok {
				b.Fatal("session lost")
			}
			if _, err := stmt.QueryCtx(ctx, sess.DB()); err != nil {
				b.Fatal(err)
			}
			collector.Finish(tr, 200)
		}
	})
}

// BenchmarkSessionLookup measures the uncontended fast path: parallel
// resident-session lookups with no background persistence traffic. It
// isolates the cost of the manager's locking itself.
func BenchmarkSessionLookup(b *testing.B) {
	const hot = 8
	sys := demoSystem(b)
	p := newPersister(b.TempDir(), sys, persist.SyncBatched, nil, nil)
	m := newSessionManager(hot, time.Hour, 4, p)
	b.Cleanup(func() { m.shutdown() })
	hotIDs, _ := benchSessions(b, m, hot)

	b.ResetTimer()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := hotIDs[i%len(hotIDs)]
			i++
			if _, ok := m.get(id); !ok {
				b.Errorf("hot session %s lost", id)
			}
		}
	})
}
