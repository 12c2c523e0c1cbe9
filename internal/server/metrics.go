package server

import (
	"expvar"
	"net/http"
	"sort"
	"strconv"
	"time"

	"justintime/internal/core"
	"justintime/internal/fault"
	"justintime/internal/obs"
	"justintime/internal/sqldb"
	"justintime/internal/sqldb/pager"
)

// Session-lifecycle counters: session population, eviction pressure split
// by cause, how often the durability layer saves a regeneration (and how
// often singleflight collapses duplicate disk loads), WAL volume, admission
// and degraded-mode refusals. /metrics renders them.
//
// They stay process-global expvar.Ints, shared by every Server in the
// process (tests assert on deltas, not absolute values), because the
// perfbench module reads jitd_rehydrations and jitd_sessions_live in-process
// through expvar.Get(name).(*expvar.Int). Apart from them, the planner's
// and the injected-fault counters, everything on /metrics belongs to one
// Server.
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

// latencyBoundsUs are the bucket upper bounds of every jitd latency
// histogram, in microseconds. Roughly logarithmic from "index hit" to "beam
// search".
var latencyBoundsUs = []int64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000,
}

// newQuestionHists builds one histogram per canned question kind. The set
// of kinds is closed (ParseQuestionKind rejects anything else), so the map
// is only read after construction.
func newQuestionHists() map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram)
	for _, k := range []core.QuestionKind{
		core.QNoModification, core.QMinimalFeatures, core.QDominantFeature,
		core.QMinimalOverall, core.QMaximalConfidence, core.QTurningPoint,
	} {
		m[k.String()] = obs.NewHistogram(latencyBoundsUs)
	}
	return m
}

// observeQuestionLatency records one answered question's latency.
func (s *Server) observeQuestionLatency(kind core.QuestionKind, d time.Duration) {
	if h, ok := s.questionHists[kind.String()]; ok {
		h.Observe(d)
	}
}

// handleMetrics renders the server's metrics in the Prometheus text
// exposition format: lifecycle counters, planner and plan-cache counters,
// buffer-pool, replication and per-shard residency state, trace-collector
// totals, and latency histograms (per-route HTTP, per-kind question, WAL
// fsync, pool page fault) with bucket bounds converted from the internal
// microsecond bounds to seconds.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p obs.PromWriter

	p.Gauge("jitd_sessions_live", "Sessions currently resident in memory.", metricSessionsLive.Value())
	p.Counter("jitd_evictions_ttl_total", "Sessions evicted by idle-TTL expiry.", metricEvictionsTTL.Value())
	p.Counter("jitd_evictions_lru_total", "Sessions evicted by the LRU cap.", metricEvictionsLRU.Value())
	p.Counter("jitd_rehydrations_total", "Sessions reloaded from disk on a cache miss.", metricRehydrations.Value())
	p.Counter("jitd_rehydrations_coalesced_total", "Cache misses that piggybacked on an in-flight disk load.", metricRehydrationsCoalesced.Value())
	p.Counter("jitd_wal_bytes_total", "Bytes of WAL records written.", metricWALBytes.Value())
	p.Counter("jitd_checkpoints_total", "Snapshot checkpoints (WAL folds).", metricCheckpoints.Value())
	p.Counter("jitd_creates_rejected_total", "Session creations refused with 429 (admission queue full).", metricCreatesRejected.Value())
	p.Gauge("jitd_degraded_mode", "1 while the server is in read-only degraded mode (data dir not writable).", metricDegradedMode.Value())
	p.Counter("jitd_degraded_rejected_total", "Mutations refused with 503 while in degraded mode.", metricDegradedRejects.Value())
	p.Counter("jitd_sessions_quarantined_total", "Corrupt session stores moved to the quarantine directory.", metricSessionsQuarantined.Value())
	p.Counter("jitd_checkpoint_retries_total", "Checkpoint attempts retried after a transient failure.", metricCheckpointRetries.Value())
	p.Counter("jitd_fault_disk_injected_total", "Injected disk faults fired (chaos harness).", fault.DiskInjected())
	p.Counter("jitd_fault_net_injected_total", "Injected network faults fired (chaos harness).", fault.NetInjected())

	// Resident sessions per shard: uneven counts reveal hash skew, a stuck
	// shard a lock problem.
	p.Header("jitd_shard_sessions", "gauge", "Sessions currently resident, by session-manager shard.")
	for i, n := range s.sessions.shardSizes() {
		p.Sample("jitd_shard_sessions", obs.Label("shard", strconv.Itoa(i)), int64(n))
	}

	// The planner and plan-cache counters are process-wide: session
	// databases come and go, so they count into package globals of sqldb.
	p.LabeledCounters("jitd_plan_shapes_total", "Query plans chosen, by access-path/join shape.", "shape", sqldb.PlanCounters())
	p.LabeledCounters("jitd_plan_cache_total", "Plan-cache events, by kind.", "event", sqldb.PlanCacheCounters())

	// Zeroes when paged storage is off.
	var ps pager.Stats
	if s.pool != nil {
		ps = s.pool.Stats()
	}
	p.Counter("jitd_pool_hits_total", "Buffer-pool page requests served from a resident frame.", ps.Hits)
	p.Counter("jitd_pool_misses_total", "Buffer-pool page requests that faulted a page in from disk.", ps.Misses)
	p.Counter("jitd_pool_evictions_total", "Buffer-pool frames evicted to make room.", ps.Evictions)
	p.Counter("jitd_pool_dirty_writebacks_total", "Dirty buffer-pool frames written back on eviction.", ps.DirtyWritebacks)
	p.Gauge("jitd_pool_pinned", "Buffer-pool frames currently pinned by queries.", ps.Pinned)
	p.Gauge("jitd_pool_resident_pages", "Buffer-pool frames currently mapped to a page.", ps.Resident)

	if s.shipper != nil {
		st := s.shipper.Stats()
		p.Gauge("jitd_replication_connected", "Primary-side replication feed is connected (1 = yes).", obs.Bool(st.Connected))
		// Lag counts WAL bytes only. A checkpoint's snapshot and page files
		// show up only as the new epoch's WAL size, so a session whose
		// checkpoint has not reached the standby counts here while adding
		// as little as 0 to jitd_replication_lag_bytes.
		p.Gauge("jitd_replication_lag_sessions", "Sessions whose standby cursor differs from the primary's (0 = standby current).", st.LagSessions)
		p.Gauge("jitd_replication_lag_bytes", "WAL bytes the standby lacks, summed over lagging sessions.", st.LagBytes)
		p.Counter("jitd_replication_shipped_records_total", "Replication frames shipped to the standby.", st.ShippedRecords)
		p.Counter("jitd_replication_shipped_bytes_total", "Replication payload bytes shipped to the standby.", st.ShippedBytes)
		p.Counter("jitd_replication_syncs_total", "Full session file sets shipped (create, checkpoint, resync).", st.Syncs)
		p.Counter("jitd_replication_deletes_total", "Session deletions shipped to the standby.", st.Deletes)
		p.Counter("jitd_replication_resyncs_total", "Resync requests received from the standby.", st.Resyncs)
		p.Counter("jitd_replication_reconnects_total", "Times the replication feed (re)connected.", st.Reconnects)
		p.Counter("jitd_replication_overflows_total", "Times the ship queue overflowed and forced a re-handshake.", st.Overflows)
	}

	finished, kept, keptSlow := s.collector.Stats()
	p.Counter("jitd_traces_finished_total", "Requests whose trace completed (sampled or not).", int64(finished))
	p.Counter("jitd_traces_kept_total", "Fast-request traces kept by 1-in-N sampling.", int64(kept))
	p.Counter("jitd_traces_kept_slow_total", "Slow-request traces kept unconditionally.", int64(keptSlow))

	labeledHists(&p, "jitd_http_request_duration_seconds", "HTTP request latency by route.", "route", s.routeHists)
	labeledHists(&p, "jitd_question_duration_seconds", "Canned-question latency by question kind.", "kind", s.questionHists)
	p.Header("jitd_wal_fsync_duration_seconds", "histogram", "WAL fsync latency.")
	p.HistSeries("jitd_wal_fsync_duration_seconds", "", s.walFsync)
	p.Header("jitd_pool_fault_duration_seconds", "histogram", "Buffer-pool page-fault read latency.")
	p.HistSeries("jitd_pool_fault_duration_seconds", "", s.poolFault)

	p.ServeHTTP(w, r)
}

// labeledHists renders one histogram family with one series per map key,
// keys sorted for a stable exposition.
func labeledHists(p *obs.PromWriter, name, help, label string, hists map[string]*obs.Histogram) {
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.Header(name, "histogram", help)
	for _, k := range keys {
		p.HistSeries(name, obs.Label(label, k), hists[k])
	}
}
