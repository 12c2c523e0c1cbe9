package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/obs"
)

// forwardBoundsUs are the forward-latency bucket upper bounds in
// microseconds, roughly logarithmic from "hot in-memory ask" to "shard is
// struggling". They mirror the shape of jitd's own latency buckets so the
// two layers' histograms line up on a dashboard.
var forwardBoundsUs = []int64{
	100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000, 5000000,
}

// shardMetrics is the per-shard slice of the router's counters. Metrics are
// per-Router instance (not process globals), so many routers can run in one
// process.
type shardMetrics struct {
	forwarded   atomic.Int64 // requests forwarded (a response came back)
	retries     atomic.Int64 // idempotent reads retried after a transport error
	errors      atomic.Int64 // forwards that failed after any retry
	unavailable atomic.Int64 // requests answered 503 locally (shard down / no address)
	latency     *obs.Histogram

	// okCount/okSumUs track successful forwards only — the shard's actual
	// service time, excluding failed forwards whose duration measures our
	// own dial/response timeouts. This is the series the derived Retry-After
	// hint reads; the full histogram above keeps recording everything.
	okCount atomic.Int64
	okSumUs atomic.Int64
}

// observeOK records one successful forward's duration.
func (sm *shardMetrics) observeOK(d time.Duration) {
	sm.okCount.Add(1)
	sm.okSumUs.Add(d.Microseconds())
}

// meanOKUs returns the mean successful-forward latency in microseconds
// (0 with no successful forwards yet).
func (sm *shardMetrics) meanOKUs() int64 {
	n := sm.okCount.Load()
	if n == 0 {
		return 0
	}
	return sm.okSumUs.Load() / n
}

// routerMetrics aggregates the router's observable state.
type routerMetrics struct {
	mu     sync.Mutex
	shards map[string]*shardMetrics
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{shards: make(map[string]*shardMetrics)}
}

// shard returns (creating on first use) the metrics slice for a shard name.
func (m *routerMetrics) shard(name string) *shardMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm, ok := m.shards[name]
	if !ok {
		sm = &shardMetrics{latency: obs.NewHistogram(forwardBoundsUs)}
		m.shards[name] = sm
	}
	return sm
}

// snapshot copies the name->metrics map for rendering.
func (m *routerMetrics) snapshot() map[string]*shardMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*shardMetrics, len(m.shards))
	for k, v := range m.shards {
		out[k] = v
	}
	return out
}

// renderProm writes the router's metrics in the Prometheus text exposition
// format. health maps shard name -> currently-healthy for the gauge family.
func (m *routerMetrics) renderProm(p *obs.PromWriter, health map[string]bool) {
	shards := m.snapshot()
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)

	counter := func(family, help string, val func(*shardMetrics) int64) {
		p.Header(family, "counter", help)
		for _, name := range names {
			p.Sample(family, obs.Label("shard", name), val(shards[name]))
		}
	}
	counter("jitrouter_forwarded_total", "Requests forwarded to a shard that returned a response.",
		func(s *shardMetrics) int64 { return s.forwarded.Load() })
	counter("jitrouter_retries_total", "Idempotent reads retried once after a transport error.",
		func(s *shardMetrics) int64 { return s.retries.Load() })
	counter("jitrouter_forward_errors_total", "Forwards that failed after any retry (answered 503).",
		func(s *shardMetrics) int64 { return s.errors.Load() })
	counter("jitrouter_unavailable_total", "Requests answered 503 locally because the shard was marked down.",
		func(s *shardMetrics) int64 { return s.unavailable.Load() })

	p.Header("jitrouter_shard_healthy", "gauge", "Shard health as seen by the router's prober (1 = up).")
	hn := make([]string, 0, len(health))
	for name := range health {
		hn = append(hn, name)
	}
	sort.Strings(hn)
	for _, name := range hn {
		p.Sample("jitrouter_shard_healthy", obs.Label("shard", name), obs.Bool(health[name]))
	}

	p.Header("jitrouter_forward_duration_seconds", "histogram", "Forward latency by shard (router-side, includes the shard's own service time).")
	for _, name := range names {
		p.HistSeries("jitrouter_forward_duration_seconds", obs.Label("shard", name), shards[name].latency)
	}
}
