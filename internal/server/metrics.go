package server

import (
	"expvar"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/core"
	"justintime/internal/fault"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
	"justintime/internal/sqldb/persist"
)

// Process-wide serving metrics, exported on /debug/vars (the expvar page the
// jitd daemon mounts): session population, eviction pressure split by cause,
// how often the durability layer saves a regeneration (and how often
// singleflight collapses duplicate disk loads), WAL volume, per-question
// latency histograms and per-shard residency.
//
// expvar registers into a process-global map, so these are package-level
// singletons shared by every Server in the process; tests assert on deltas,
// not absolute values.
var (
	// metricSessionsLive is the number of sessions currently resident in
	// memory across all session managers.
	metricSessionsLive = expvar.NewInt("jitd_sessions_live")
	// metricEvictionsTTL counts sessions dropped from memory by idle-TTL
	// expiry.
	metricEvictionsTTL = expvar.NewInt("jitd_evictions_ttl")
	// metricEvictionsLRU counts sessions dropped from memory by the
	// least-recently-used cap.
	metricEvictionsLRU = expvar.NewInt("jitd_evictions_lru")
	// metricRehydrations counts sessions reloaded from disk on a cache miss
	// — each one is a T+1 beam-search regeneration avoided.
	metricRehydrations = expvar.NewInt("jitd_rehydrations")
	// metricRehydrationsCoalesced counts cache misses that piggybacked on an
	// already-running disk load of the same session instead of replaying the
	// snapshot+WAL themselves (the singleflight win).
	metricRehydrationsCoalesced = expvar.NewInt("jitd_rehydrations_coalesced")
	// metricWALBytes is the total bytes of WAL records written.
	metricWALBytes = expvar.NewInt("jitd_wal_bytes")
	// metricCheckpoints counts snapshot checkpoints (WAL folds). Evictions
	// of clean (read-only since last fold) sessions skip the checkpoint and
	// do not count.
	metricCheckpoints = expvar.NewInt("jitd_checkpoints")
	// metricCreatesRejected counts session creations refused with 429
	// because the admission queue was full.
	metricCreatesRejected = expvar.NewInt("jitd_creates_rejected")
	// metricDegradedMode is 1 while the server is in read-only degraded
	// mode (out-of-space data dir), 0 otherwise.
	metricDegradedMode = expvar.NewInt("jitd_degraded_mode")
	// metricDegradedRejects counts mutations refused with 503 while in
	// degraded mode.
	metricDegradedRejects = expvar.NewInt("jitd_degraded_rejected")
	// metricSessionsQuarantined counts session stores whose snapshot or page
	// file failed structural checks and were moved to <data-dir>/quarantine/.
	metricSessionsQuarantined = expvar.NewInt("jitd_sessions_quarantined")
	// metricCheckpointRetries counts checkpoint attempts that failed
	// transiently and were retried under backoff.
	metricCheckpointRetries = expvar.NewInt("jitd_checkpoint_retries")
)

// managerRegistry tracks the live session managers in the process so the
// per-shard gauge below can enumerate them. expvar names are process-global
// (double registration panics), so the gauge is one Func over a registry
// instead of per-manager vars.
var managerRegistry struct {
	mu sync.Mutex
	ms []*sessionManager
}

func registerManager(m *sessionManager) {
	managerRegistry.mu.Lock()
	defer managerRegistry.mu.Unlock()
	managerRegistry.ms = append(managerRegistry.ms, m)
}

func unregisterManager(m *sessionManager) {
	managerRegistry.mu.Lock()
	defer managerRegistry.mu.Unlock()
	for i, x := range managerRegistry.ms {
		if x == m {
			managerRegistry.ms = append(managerRegistry.ms[:i], managerRegistry.ms[i+1:]...)
			return
		}
	}
}

// poolRegistry tracks the live buffer pools in the process (one per Server
// running with paged storage; usually one outside of tests) so the
// jitd_pool_* vars below can enumerate them. Same shape as managerRegistry:
// expvar names are process-global, so the gauges are Funcs over a registry.
var poolRegistry struct {
	mu sync.Mutex
	ps []*pager.Pool
}

func registerPool(p *pager.Pool) {
	poolRegistry.mu.Lock()
	defer poolRegistry.mu.Unlock()
	poolRegistry.ps = append(poolRegistry.ps, p)
}

func unregisterPool(p *pager.Pool) {
	poolRegistry.mu.Lock()
	defer poolRegistry.mu.Unlock()
	for i, x := range poolRegistry.ps {
		if x == p {
			poolRegistry.ps = append(poolRegistry.ps[:i], poolRegistry.ps[i+1:]...)
			return
		}
	}
}

// replRegistry tracks the process's live replication endpoints: shippers
// (primary side, registered by Servers running with ReplicateTo) and
// replicas (standby side, registered by the daemon via RegisterReplica).
// Same shape as the other registries: expvar names are process-global, so
// the gauges below are Funcs over the registry.
var replRegistry struct {
	mu       sync.Mutex
	shippers []*persist.Shipper
	replicas []*persist.Replica
}

func registerShipper(s *persist.Shipper) {
	replRegistry.mu.Lock()
	defer replRegistry.mu.Unlock()
	replRegistry.shippers = append(replRegistry.shippers, s)
}

func unregisterShipper(s *persist.Shipper) {
	replRegistry.mu.Lock()
	defer replRegistry.mu.Unlock()
	for i, x := range replRegistry.shippers {
		if x == s {
			replRegistry.shippers = append(replRegistry.shippers[:i], replRegistry.shippers[i+1:]...)
			return
		}
	}
}

// RegisterReplica adds a standby replica to the process's replication
// metrics (the jitd_replica_* vars and /metrics families). The daemon calls
// it when running as a warm standby, since the replica lives outside any
// Server.
func RegisterReplica(r *persist.Replica) {
	replRegistry.mu.Lock()
	defer replRegistry.mu.Unlock()
	replRegistry.replicas = append(replRegistry.replicas, r)
}

// UnregisterReplica removes a replica registered with RegisterReplica.
func UnregisterReplica(r *persist.Replica) {
	replRegistry.mu.Lock()
	defer replRegistry.mu.Unlock()
	for i, x := range replRegistry.replicas {
		if x == r {
			replRegistry.replicas = append(replRegistry.replicas[:i], replRegistry.replicas[i+1:]...)
			return
		}
	}
}

// shipperStats sums stats across the registered shippers; connected is true
// when every registered shipper has a live feed (vacuously true with none).
func shipperStats() (sum persist.ShipperStats, any bool) {
	replRegistry.mu.Lock()
	ss := append([]*persist.Shipper(nil), replRegistry.shippers...)
	replRegistry.mu.Unlock()
	sum.Connected = true
	for _, s := range ss {
		st := s.Stats()
		sum.Connected = sum.Connected && st.Connected
		sum.LagSessions += st.LagSessions
		sum.LagBytes += st.LagBytes
		sum.ShippedRecords += st.ShippedRecords
		sum.ShippedBytes += st.ShippedBytes
		sum.Syncs += st.Syncs
		sum.Deletes += st.Deletes
		sum.Resyncs += st.Resyncs
		sum.Reconnects += st.Reconnects
		sum.Overflows += st.Overflows
	}
	return sum, len(ss) > 0
}

// replicaStats sums stats across the registered replicas.
func replicaStats() (sum persist.ReplicaStats, any bool) {
	replRegistry.mu.Lock()
	rs := append([]*persist.Replica(nil), replRegistry.replicas...)
	replRegistry.mu.Unlock()
	sum.Connected = true
	for _, r := range rs {
		st := r.Stats()
		sum.Connected = sum.Connected && st.Connected
		sum.AppliedRecords += st.AppliedRecords
		sum.AppliedBytes += st.AppliedBytes
		sum.Syncs += st.Syncs
		sum.Deletes += st.Deletes
		sum.ResyncsSent += st.ResyncsSent
	}
	return sum, len(rs) > 0
}

// poolStats sums Stats across the registered pools.
func poolStats() pager.Stats {
	poolRegistry.mu.Lock()
	ps := append([]*pager.Pool(nil), poolRegistry.ps...)
	poolRegistry.mu.Unlock()
	var sum pager.Stats
	for _, p := range ps {
		st := p.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.DirtyWritebacks += st.DirtyWritebacks
		sum.Pinned += st.Pinned
		sum.Resident += st.Resident
	}
	return sum
}

// latencyBoundsUs are the jitd_question_latency_us bucket upper bounds, in
// microseconds. Roughly logarithmic from "index hit" to "beam search".
var latencyBoundsUs = [...]int64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000,
}

// latencyHist is a fixed-bucket latency histogram with lock-free recording.
type latencyHist struct {
	counts [len(latencyBoundsUs) + 1]atomic.Int64 // one per bound, plus +Inf
	sumUs  atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(latencyBoundsUs) && us > latencyBoundsUs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumUs.Add(us)
}

// snapshot renders the histogram in a Prometheus-like cumulative shape.
// count is derived from the same bucket loads as le_inf, so the invariant
// count == le_inf holds even when a scrape races an observe (a separate
// total counter could read one sample ahead of or behind the buckets).
func (h *latencyHist) snapshot() map[string]int64 {
	out := make(map[string]int64, len(h.counts)+2)
	cum := int64(0)
	for i, b := range latencyBoundsUs {
		cum += h.counts[i].Load()
		out["le_"+strconv.FormatInt(b, 10)] = cum
	}
	cum += h.counts[len(latencyBoundsUs)].Load()
	out["le_inf"] = cum
	out["count"] = cum
	out["sum_us"] = h.sumUs.Load()
	return out
}

// cumulative returns the cumulative bucket counts in latencyBoundsUs order
// with the +Inf total appended (index len(latencyBoundsUs)), plus the
// observation sum in microseconds — the shape the Prometheus text renderer
// consumes. Like snapshot, the total is derived from the same bucket loads,
// so _count == the +Inf bucket even when a scrape races an observe.
func (h *latencyHist) cumulative() (counts []int64, sumUs int64) {
	counts = make([]int64, len(latencyBoundsUs)+1)
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	return counts, h.sumUs.Load()
}

// routeHists holds one latency histogram per HTTP route path. Routes are
// registered once per Server construction (fixed cardinality — the label is
// the mux pattern, never the raw URL); like every other metric here the
// histograms are process-global, shared across Servers.
var routeHists struct {
	mu sync.Mutex
	m  map[string]*latencyHist
}

// routeHist returns (creating on first use) the histogram for a route path.
func routeHist(path string) *latencyHist {
	routeHists.mu.Lock()
	defer routeHists.mu.Unlock()
	if routeHists.m == nil {
		routeHists.m = make(map[string]*latencyHist)
	}
	h, ok := routeHists.m[path]
	if !ok {
		h = &latencyHist{}
		routeHists.m[path] = h
	}
	return h
}

// routeHistSnapshot copies the route→histogram map for rendering.
func routeHistSnapshot() map[string]*latencyHist {
	routeHists.mu.Lock()
	defer routeHists.mu.Unlock()
	out := make(map[string]*latencyHist, len(routeHists.m))
	for k, v := range routeHists.m {
		out[k] = v
	}
	return out
}

// walFsyncHist observes every WAL fsync's latency (wired into each
// persister's store options); poolFaultHist observes every buffer-pool page
// fault's read latency (wired into the pager's process-wide fault observer).
var (
	walFsyncHist  latencyHist
	poolFaultHist latencyHist
)

// questionLatencies holds one histogram per canned question kind. The set
// of kinds is closed (ParseQuestionKind rejects anything else), so the map
// is built once and only read afterwards — no lock needed on observe.
var questionLatencies = func() map[string]*latencyHist {
	m := make(map[string]*latencyHist)
	for _, k := range []core.QuestionKind{
		core.QNoModification, core.QMinimalFeatures, core.QDominantFeature,
		core.QMinimalOverall, core.QMaximalConfidence, core.QTurningPoint,
	} {
		m[k.String()] = &latencyHist{}
	}
	return m
}()

// observeQuestionLatency records one answered question's latency.
func observeQuestionLatency(kind core.QuestionKind, d time.Duration) {
	if h, ok := questionLatencies[kind.String()]; ok {
		h.observe(d)
	}
}

func init() {
	// Every buffer-pool page fault in the process reports its disk-read
	// latency here, whichever pool (and whichever statement) faulted it.
	pager.SetFaultObserver(func(d time.Duration) { poolFaultHist.observe(d) })
	// jitd_http_latency_us: per-route HTTP latency histograms (the expvar
	// twin of the /metrics jitd_http_request_duration_seconds family).
	expvar.Publish("jitd_http_latency_us", expvar.Func(func() interface{} {
		hists := routeHistSnapshot()
		out := make(map[string]map[string]int64, len(hists))
		for route, h := range hists {
			out[route] = h.snapshot()
		}
		return out
	}))
	// jitd_wal_fsync_us / jitd_pool_fault_us: I/O latency histograms for WAL
	// fsyncs and buffer-pool page faults.
	expvar.Publish("jitd_wal_fsync_us", expvar.Func(func() interface{} { return walFsyncHist.snapshot() }))
	expvar.Publish("jitd_pool_fault_us", expvar.Func(func() interface{} { return poolFaultHist.snapshot() }))
	// jitd_plan_shapes mirrors the query planner's per-plan-shape counters
	// (full_scan, index_scan, index_intersection, empty_probe, top_k,
	// index_join, hash_join, nested_loop_join): how often each access-path
	// and join shape was chosen across every session database since process
	// start. A rising full_scan share on the hot canned-question paths is
	// the signal a session schema lost its expected indexes.
	expvar.Publish("jitd_plan_shapes", expvar.Func(func() interface{} {
		return sqldb.PlanCounters()
	}))
	// Plan-cache effectiveness across every session database: hits are
	// prepared executions that reused a memoized plan, misses planned from
	// scratch, invalidations dropped a cached plan whose schema version or
	// stats epoch went stale. A rising invalidation share means statistics
	// are drifting faster than plans are reused.
	expvar.Publish("jitd_plan_cache_hits", expvar.Func(func() interface{} {
		return sqldb.PlanCacheCounters()["hits"]
	}))
	expvar.Publish("jitd_plan_cache_misses", expvar.Func(func() interface{} {
		return sqldb.PlanCacheCounters()["misses"]
	}))
	expvar.Publish("jitd_plan_cache_invalidations", expvar.Func(func() interface{} {
		return sqldb.PlanCacheCounters()["invalidations"]
	}))
	// jitd_question_latency_us: per-question-kind latency histograms
	// (cumulative buckets, microsecond bounds) over the /ask endpoint.
	expvar.Publish("jitd_question_latency_us", expvar.Func(func() interface{} {
		out := make(map[string]map[string]int64, len(questionLatencies))
		for kind, h := range questionLatencies {
			out[kind] = h.snapshot()
		}
		return out
	}))
	// Buffer-pool counters over every registered pool (one per Server
	// running with -buffer-pool-pages; zeroes when paged storage is off).
	// hits/misses grade the pool's sizing (a rising miss share means the
	// working set outgrew the frame count), evictions and dirty_writebacks
	// measure churn, pinned is the instantaneous count of frames queries
	// are holding right now, and jitd_pool_resident_pages is the gauge of
	// frames currently mapped to a page — the pool's in-memory footprint.
	expvar.Publish("jitd_pool_hits", expvar.Func(func() interface{} { return poolStats().Hits }))
	expvar.Publish("jitd_pool_misses", expvar.Func(func() interface{} { return poolStats().Misses }))
	expvar.Publish("jitd_pool_evictions", expvar.Func(func() interface{} { return poolStats().Evictions }))
	expvar.Publish("jitd_pool_dirty_writebacks", expvar.Func(func() interface{} { return poolStats().DirtyWritebacks }))
	expvar.Publish("jitd_pool_pinned", expvar.Func(func() interface{} { return poolStats().Pinned }))
	expvar.Publish("jitd_pool_resident_pages", expvar.Func(func() interface{} { return poolStats().Resident }))
	// Replication state over every registered shipper (primary side) and
	// replica (standby side). The lag gauges are the failover gate: a
	// standby may be promoted once jitd_replication_lag_sessions reads 0.
	expvar.Publish("jitd_repl_shipper", expvar.Func(func() interface{} {
		st, any := shipperStats()
		if !any {
			return nil
		}
		return st
	}))
	expvar.Publish("jitd_repl_replica", expvar.Func(func() interface{} {
		st, any := replicaStats()
		if !any {
			return nil
		}
		return st
	}))
	// jitd_fault_disk_injected / jitd_fault_net_injected: process-wide counts
	// of injected disk and network faults — zero in production, the chaos
	// harness's evidence that its schedules actually fired.
	expvar.Publish("jitd_fault_disk_injected", expvar.Func(func() interface{} { return fault.DiskInjected() }))
	expvar.Publish("jitd_fault_net_injected", expvar.Func(func() interface{} { return fault.NetInjected() }))
	// jitd_shard_sessions: resident sessions per shard, summed element-wise
	// across the process's live session managers (one, outside of tests).
	// Uneven counts reveal hash skew; a stuck shard reveals a lock problem.
	expvar.Publish("jitd_shard_sessions", expvar.Func(func() interface{} {
		managerRegistry.mu.Lock()
		ms := append([]*sessionManager(nil), managerRegistry.ms...)
		managerRegistry.mu.Unlock()
		var out []int
		for _, m := range ms {
			for i, n := range m.shardSizes() {
				if i == len(out) {
					out = append(out, 0)
				}
				out[i] += n
			}
		}
		return out
	}))
}
