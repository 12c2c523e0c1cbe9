package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"justintime/internal/fault"
	"justintime/internal/sqldb"
)

// handleMetrics renders the process's metrics in the Prometheus text
// exposition format (version 0.0.4), hand-rolled — the repo takes no
// dependency on a client library. The families mirror the /debug/vars
// expvars: lifecycle counters, planner and plan-cache counters, buffer-pool
// counters, trace-collector totals, and latency histograms (per-route HTTP,
// per-kind question, WAL fsync, pool page fault) with bucket bounds
// converted from the internal microsecond bounds to seconds.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	gauge("jitd_sessions_live", "Sessions currently resident in memory.", metricSessionsLive.Value())
	counter("jitd_evictions_ttl_total", "Sessions evicted by idle-TTL expiry.", metricEvictionsTTL.Value())
	counter("jitd_evictions_lru_total", "Sessions evicted by the LRU cap.", metricEvictionsLRU.Value())
	counter("jitd_rehydrations_total", "Sessions reloaded from disk on a cache miss.", metricRehydrations.Value())
	counter("jitd_rehydrations_coalesced_total", "Cache misses that piggybacked on an in-flight disk load.", metricRehydrationsCoalesced.Value())
	counter("jitd_wal_bytes_total", "Bytes of WAL records written.", metricWALBytes.Value())
	counter("jitd_checkpoints_total", "Snapshot checkpoints (WAL folds).", metricCheckpoints.Value())
	counter("jitd_creates_rejected_total", "Session creations refused with 429 (admission queue full).", metricCreatesRejected.Value())
	gauge("jitd_degraded_mode", "1 while the server is in read-only degraded mode (data dir not writable).", metricDegradedMode.Value())
	counter("jitd_degraded_rejected_total", "Mutations refused with 503 while in degraded mode.", metricDegradedRejects.Value())
	counter("jitd_sessions_quarantined_total", "Corrupt session stores moved to the quarantine directory.", metricSessionsQuarantined.Value())
	counter("jitd_checkpoint_retries_total", "Checkpoint attempts retried after a transient failure.", metricCheckpointRetries.Value())
	counter("jitd_fault_disk_injected_total", "Injected disk faults fired (chaos harness).", fault.DiskInjected())
	counter("jitd_fault_net_injected_total", "Injected network faults fired (chaos harness).", fault.NetInjected())

	labeledCounters(&b, "jitd_plan_shapes_total", "Query plans chosen, by access-path/join shape.", "shape", sqldb.PlanCounters())
	labeledCounters(&b, "jitd_plan_cache_total", "Plan-cache events, by kind.", "event", sqldb.PlanCacheCounters())

	ps := poolStats()
	counter("jitd_pool_hits_total", "Buffer-pool page requests served from a resident frame.", ps.Hits)
	counter("jitd_pool_misses_total", "Buffer-pool page requests that faulted a page in from disk.", ps.Misses)
	counter("jitd_pool_evictions_total", "Buffer-pool frames evicted to make room.", ps.Evictions)
	counter("jitd_pool_dirty_writebacks_total", "Dirty buffer-pool frames written back on eviction.", ps.DirtyWritebacks)
	gauge("jitd_pool_pinned", "Buffer-pool frames currently pinned by queries.", ps.Pinned)
	gauge("jitd_pool_resident_pages", "Buffer-pool frames currently mapped to a page.", ps.Resident)

	boolGauge := func(name, help string, v bool) {
		n := int64(0)
		if v {
			n = 1
		}
		gauge(name, help, n)
	}
	if st, any := shipperStats(); any {
		boolGauge("jitd_replication_connected", "Primary-side replication feed is connected (1 = yes).", st.Connected)
		// Lag counts WAL bytes only. A checkpoint's snapshot and page files
		// show up only as the new epoch's WAL size, so a session whose
		// checkpoint has not reached the standby counts here while adding
		// as little as 0 to jitd_replication_lag_bytes.
		gauge("jitd_replication_lag_sessions", "Sessions whose standby cursor differs from the primary's (0 = standby current).", st.LagSessions)
		gauge("jitd_replication_lag_bytes", "WAL bytes the standby lacks, summed over lagging sessions.", st.LagBytes)
		counter("jitd_replication_shipped_records_total", "Replication frames shipped to the standby.", st.ShippedRecords)
		counter("jitd_replication_shipped_bytes_total", "Replication payload bytes shipped to the standby.", st.ShippedBytes)
		counter("jitd_replication_syncs_total", "Full session file sets shipped (create, checkpoint, resync).", st.Syncs)
		counter("jitd_replication_resyncs_total", "Resync requests received from the standby.", st.Resyncs)
		counter("jitd_replication_reconnects_total", "Times the replication feed (re)connected.", st.Reconnects)
		counter("jitd_replication_overflows_total", "Times the ship queue overflowed and forced a re-handshake.", st.Overflows)
	}
	if st, any := replicaStats(); any {
		boolGauge("jitd_replica_connected", "Standby-side replication feed is connected (1 = yes).", st.Connected)
		counter("jitd_replica_applied_records_total", "WAL records applied by the standby.", st.AppliedRecords)
		counter("jitd_replica_applied_bytes_total", "Replicated bytes applied by the standby.", st.AppliedBytes)
		counter("jitd_replica_syncs_total", "Full session file sets applied by the standby.", st.Syncs)
		counter("jitd_replica_deletes_total", "Session deletions applied by the standby.", st.Deletes)
		counter("jitd_replica_resyncs_sent_total", "Resync requests the standby sent to the primary.", st.ResyncsSent)
	}

	finished, kept, keptSlow := s.collector.Stats()
	counter("jitd_traces_finished_total", "Requests whose trace completed (sampled or not).", int64(finished))
	counter("jitd_traces_kept_total", "Fast-request traces kept by 1-in-N sampling.", int64(kept))
	counter("jitd_traces_kept_slow_total", "Slow-request traces kept unconditionally.", int64(keptSlow))

	httpSeries := routeHistSnapshot()
	routes := make([]string, 0, len(httpSeries))
	for route := range httpSeries {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	histHeader(&b, "jitd_http_request_duration_seconds", "HTTP request latency by route.")
	for _, route := range routes {
		histSeries(&b, "jitd_http_request_duration_seconds", `route="`+route+`"`, httpSeries[route])
	}

	kinds := make([]string, 0, len(questionLatencies))
	for kind := range questionLatencies {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	histHeader(&b, "jitd_question_duration_seconds", "Canned-question latency by question kind.")
	for _, kind := range kinds {
		histSeries(&b, "jitd_question_duration_seconds", `kind="`+kind+`"`, questionLatencies[kind])
	}

	histHeader(&b, "jitd_wal_fsync_duration_seconds", "WAL fsync latency.")
	histSeries(&b, "jitd_wal_fsync_duration_seconds", "", &walFsyncHist)
	histHeader(&b, "jitd_pool_fault_duration_seconds", "Buffer-pool page-fault read latency.")
	histSeries(&b, "jitd_pool_fault_duration_seconds", "", &poolFaultHist)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// labeledCounters renders one counter family with one series per map key,
// keys sorted for a stable exposition.
func labeledCounters(b *bytes.Buffer, name, help, label string, vals map[string]uint64) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, k, vals[k])
	}
}

// histHeader emits one histogram family's HELP/TYPE preamble; every series
// of the family must follow before the next family starts.
func histHeader(b *bytes.Buffer, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
}

// histSeries renders one histogram series (one label set) from a latencyHist:
// cumulative _bucket lines with le in seconds, then _sum and _count. labels
// is a pre-rendered `k="v"` list without braces, or empty.
func histSeries(b *bytes.Buffer, name, labels string, h *latencyHist) {
	counts, sumUs := h.cumulative()
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range latencyBoundsUs {
		le := strconv.FormatFloat(float64(bound)/1e6, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, counts[i])
	}
	total := counts[len(latencyBoundsUs)]
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(float64(sumUs)/1e6, 'g', -1, 64))
		fmt.Fprintf(b, "%s_count %d\n", name, total)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(float64(sumUs)/1e6, 'g', -1, 64))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, total)
	}
}
